// Explain renders plans as indented trees for logs, CLIs and examples.
package plan

import (
	"fmt"
	"strings"

	"qpipe/internal/tuple"
)

// colsSuffix names, in list order, the table columns a projecting scan
// produces (a nil projection — every column — prints nothing).
func colsSuffix(s *tuple.Schema, project []int) string {
	if project == nil {
		return ""
	}
	names := make([]string, len(project))
	for i, c := range project {
		names[i] = s.Cols[c].Name
	}
	return " cols=[" + strings.Join(names, " ") + "]"
}

// describe returns a one-line summary of a node (operator + key args).
func describe(n Node) string {
	switch x := n.(type) {
	case *TableScan:
		mode := "unordered"
		if x.Ordered {
			mode = "ordered"
		}
		f := ""
		if x.Filter != nil {
			f = " filter=" + x.Filter.Signature()
		}
		return fmt.Sprintf("TableScan %s (%s)%s%s", x.Table, mode, colsSuffix(x.TableSchema, x.Project), f)
	case *IndexScan:
		kind := "unclustered"
		if x.Clustered {
			kind = "clustered"
		}
		mode := "unordered"
		if x.Ordered {
			mode = "ordered"
		}
		rng := ""
		if x.Lo.IsValid() || x.Hi.IsValid() {
			rng = fmt.Sprintf(" range=[%s,%s]", x.Lo, x.Hi)
		}
		f := ""
		if x.Filter != nil {
			f = " filter=" + x.Filter.Signature()
		}
		return fmt.Sprintf("IndexScan %s.%s (%s, %s)%s%s%s", x.Table, x.Col, kind, mode, rng, colsSuffix(x.TableSchema, x.Project), f)
	case *Filter:
		return "Filter " + x.Pred.Signature()
	case *Project:
		return fmt.Sprintf("Project %d exprs", len(x.Exprs))
	case *Sort:
		dir := "asc"
		if x.Desc {
			dir = "desc"
		}
		top := ""
		if x.Limit > 0 {
			top = fmt.Sprintf(" top=%d", x.Limit)
		}
		return fmt.Sprintf("Sort keys=%v %s%s", x.Keys, dir, top)
	case *MergeJoin:
		return fmt.Sprintf("MergeJoin L[%d]=R[%d]", x.LKey, x.RKey)
	case *HashJoin:
		return fmt.Sprintf("HashJoin build[%d]=probe[%d]", x.LKey, x.RKey)
	case *NLJoin:
		return "NLJoin " + x.Pred.Signature()
	case *Aggregate:
		parts := make([]string, len(x.Specs))
		for i, s := range x.Specs {
			parts[i] = s.Signature()
		}
		return "Aggregate " + strings.Join(parts, ", ")
	case *GroupBy:
		return fmt.Sprintf("GroupBy keys=%v (%d aggs)", x.Keys, len(x.Specs))
	case *Update:
		return fmt.Sprintf("Update %s (%d rows)", x.Table, len(x.Rows))
	default:
		return string(n.Op())
	}
}

// Explain renders the plan as an indented tree, one node per line, the way
// EXPLAIN output reads in most engines (root first).
func Explain(n Node) string { return ExplainFunc(n, nil) }

// ExplainFunc is Explain with a per-node annotation hook: annot's return
// value (e.g. " rows≈42" from a cardinality estimator) is appended to that
// node's line. A nil annot renders the plain tree.
func ExplainFunc(n Node, annot func(Node) string) string {
	var b strings.Builder
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(describe(n))
		if annot != nil {
			b.WriteString(annot(n))
		}
		b.WriteByte('\n')
		for _, c := range n.Children() {
			walk(c, depth+1)
		}
	}
	walk(n, 0)
	return b.String()
}
