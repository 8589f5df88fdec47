// Plan validation: structural checks run before a plan is admitted. The
// builder layer resolves column *names*; this hook guards the positional
// layer underneath it (and hand-built plans from the workload packages and
// embedders) so an out-of-range column reference fails at submit
// with a typed error instead of panicking inside a µEngine worker.
package plan

import (
	"fmt"

	"qpipe/internal/expr"
)

// ValidationError reports a structurally invalid plan node.
type ValidationError struct {
	Op  OpType // the offending node's operator type
	Msg string
}

// Error implements error.
func (e *ValidationError) Error() string {
	return fmt.Sprintf("plan: invalid %s node: %s", e.Op, e.Msg)
}

// Validate walks the plan bottom-up checking every column reference —
// filter and projection expressions, join keys, sort keys, group keys and
// aggregate arguments — against the schema of the node's input. It returns
// the first violation as a *ValidationError.
func Validate(root Node) error {
	var err error
	Walk(root, func(n Node) {
		if err != nil {
			return
		}
		err = validateNode(n)
	})
	return err
}

// checkRefs bounds-checks collected column references against width; what
// names the referencing expression and is rendered only for an error.
func checkRefs(op OpType, what func() string, width int, collect func(fn func(int))) error {
	bad, found := 0, false
	collect(func(ix int) {
		if (ix < 0 || ix >= width) && !found {
			bad, found = ix, true
		}
	})
	if found {
		return &ValidationError{Op: op, Msg: fmt.Sprintf("%s references column %d of a %d-column input", what(), bad, width)}
	}
	return nil
}

func checkKeys(op OpType, what string, width int, keys []int) error {
	for _, k := range keys {
		if k < 0 || k >= width {
			return &ValidationError{Op: op, Msg: fmt.Sprintf("%s key %d out of range for a %d-column input", what, k, width)}
		}
	}
	return nil
}

func validateNode(n Node) error {
	switch x := n.(type) {
	case *TableScan:
		w := x.TableSchema.Len()
		if x.Filter != nil {
			if err := checkRefs(x.Op(), func() string { return "filter" }, w, func(fn func(int)) { expr.PredRefs(x.Filter, fn) }); err != nil {
				return err
			}
		}
		return checkKeys(x.Op(), "projection", w, x.Project)
	case *IndexScan:
		w := x.TableSchema.Len()
		if x.TableSchema.ColIndex(x.Col) < 0 {
			return &ValidationError{Op: x.Op(), Msg: fmt.Sprintf("index column %q not in table schema", x.Col)}
		}
		if x.Filter != nil {
			if err := checkRefs(x.Op(), func() string { return "filter" }, w, func(fn func(int)) { expr.PredRefs(x.Filter, fn) }); err != nil {
				return err
			}
		}
		return checkKeys(x.Op(), "projection", w, x.Project)
	case *Filter:
		w := x.Child.Schema().Len()
		return checkRefs(x.Op(), func() string { return "predicate" }, w, func(fn func(int)) { expr.PredRefs(x.Pred, fn) })
	case *Project:
		w := x.Child.Schema().Len()
		for i, e := range x.Exprs {
			if err := checkRefs(x.Op(), func() string { return fmt.Sprintf("expression %d", i) }, w, func(fn func(int)) { expr.ExprRefs(e, fn) }); err != nil {
				return err
			}
		}
	case *Sort:
		return checkKeys(x.Op(), "sort", x.Child.Schema().Len(), x.Keys)
	case *MergeJoin:
		if err := checkKeys(x.Op(), "left", x.Left.Schema().Len(), []int{x.LKey}); err != nil {
			return err
		}
		return checkKeys(x.Op(), "right", x.Right.Schema().Len(), []int{x.RKey})
	case *HashJoin:
		if err := checkKeys(x.Op(), "build", x.Left.Schema().Len(), []int{x.LKey}); err != nil {
			return err
		}
		return checkKeys(x.Op(), "probe", x.Right.Schema().Len(), []int{x.RKey})
	case *NLJoin:
		w := x.Left.Schema().Len() + x.Right.Schema().Len()
		return checkRefs(x.Op(), func() string { return "predicate" }, w, func(fn func(int)) { expr.PredRefs(x.Pred, fn) })
	case *Aggregate:
		w := x.Child.Schema().Len()
		for _, s := range x.Specs {
			if s.Arg == nil {
				continue
			}
			if err := checkRefs(x.Op(), s.Signature, w, func(fn func(int)) { expr.ExprRefs(s.Arg, fn) }); err != nil {
				return err
			}
		}
	case *GroupBy:
		w := x.Child.Schema().Len()
		if err := checkKeys(x.Op(), "group", w, x.Keys); err != nil {
			return err
		}
		for _, s := range x.Specs {
			if s.Arg == nil {
				continue
			}
			if err := checkRefs(x.Op(), s.Signature, w, func(fn func(int)) { expr.ExprRefs(s.Arg, fn) }); err != nil {
				return err
			}
		}
	}
	return nil
}
