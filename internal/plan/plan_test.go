package plan

import (
	"strings"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

func baseSchema() *tuple.Schema {
	return tuple.NewSchema(
		tuple.Col("a", tuple.KindInt),
		tuple.Col("b", tuple.KindString),
		tuple.Col("c", tuple.KindFloat),
	)
}

func TestTableScanSchemaAndSig(t *testing.T) {
	s := baseSchema()
	full := NewTableScan("t", s, nil, nil, false)
	if full.Schema().Len() != 3 {
		t.Fatal("full scan schema")
	}
	proj := NewTableScan("t", s, nil, []int{2, 0}, false)
	if proj.Schema().Len() != 2 || proj.Schema().Cols[0].Name != "c" {
		t.Fatalf("projected schema: %v", proj.Schema())
	}
	if full.Signature() == proj.Signature() {
		t.Fatal("projection must change signature")
	}
	// No column is not every column: a satellite must never be handed the
	// empty rows of a count(*) scan for the full ones it asked for.
	if none := NewTableScan("t", s, nil, []int{}, false); none.Signature() == full.Signature() || none.Schema().Len() != 0 {
		t.Fatalf("empty projection: signature %s, schema %v", none.Signature(), none.Schema())
	}
	if got := full.Signature(); got != "tscan(t;true;[];false)" {
		t.Fatalf("the full scan's signature changed: %s", got)
	}
	ordered := NewTableScan("t", s, nil, nil, true)
	if full.Signature() == ordered.Signature() {
		t.Fatal("ordering must change signature")
	}
	filtered := NewTableScan("t", s, expr.EQ(expr.Col(0), expr.CInt(1)), nil, false)
	if full.Signature() == filtered.Signature() {
		t.Fatal("filter must change signature")
	}
	// Identical construction -> identical signature.
	again := NewTableScan("t", s, expr.EQ(expr.Col(0), expr.CInt(1)), nil, false)
	if filtered.Signature() != again.Signature() {
		t.Fatal("identical scans must have equal signatures")
	}
	if full.Children() != nil {
		t.Fatal("leaf children")
	}
	if full.Op() != OpTableScan {
		t.Fatal("op type")
	}
}

func TestIndexScanSignatureIncludesEverything(t *testing.T) {
	s := baseSchema()
	base := NewIndexScan("t", s, "a", tuple.Value{}, tuple.Value{}, true, true, nil, nil)
	variants := []*IndexScan{
		NewIndexScan("t", s, "a", tuple.I64(1), tuple.Value{}, true, true, nil, nil),
		NewIndexScan("t", s, "a", tuple.Value{}, tuple.Value{}, false, true, nil, nil),
		NewIndexScan("t", s, "a", tuple.Value{}, tuple.Value{}, true, false, nil, nil),
		NewIndexScan("t2", s, "a", tuple.Value{}, tuple.Value{}, true, true, nil, nil),
	}
	for i, v := range variants {
		if v.Signature() == base.Signature() {
			t.Errorf("variant %d signature collision", i)
		}
	}
	partial := *base
	partial.LeafFrom, partial.LeafTo = 0, 5
	if partial.Signature() == base.Signature() {
		t.Error("leaf range must change signature")
	}
	if base.LeafTo != -1 {
		t.Error("default LeafTo should be -1 (open)")
	}
}

func TestJoinSchemas(t *testing.T) {
	s := baseSchema()
	l := NewTableScan("l", s, nil, []int{0}, false)
	r := NewTableScan("r", s, nil, []int{0, 1}, false)
	mj := NewMergeJoin(l, r, 0, 0, true)
	if mj.Schema().Len() != 3 {
		t.Fatalf("mj schema: %v", mj.Schema())
	}
	hj := NewHashJoin(l, r, 0, 0)
	if hj.Schema().Len() != 3 {
		t.Fatal("hj schema")
	}
	if hj.Signature() == mj.Signature() {
		t.Fatal("join kinds must differ in signature")
	}
	nl := NewNLJoin(l, r, expr.LT(expr.Col(0), expr.Col(1)))
	if nl.Schema().Len() != 3 || len(nl.Children()) != 2 {
		t.Fatal("nl join shape")
	}
}

func TestGroupBySchema(t *testing.T) {
	s := baseSchema()
	scan := NewTableScan("t", s, nil, nil, false)
	gb := NewGroupBy(scan, []int{1}, []expr.AggSpec{
		{Kind: expr.AggCount, Name: "n"},
		{Kind: expr.AggSum, Arg: expr.Col(2)},
	})
	sch := gb.Schema()
	if sch.Len() != 3 {
		t.Fatalf("groupby schema: %v", sch)
	}
	if sch.Cols[0].Name != "b" || sch.Cols[1].Name != "n" {
		t.Fatalf("column names: %v", sch)
	}
	// Unnamed agg gets its signature as a name.
	if !strings.Contains(sch.Cols[2].Name, "sum") {
		t.Fatalf("default agg name: %v", sch.Cols[2].Name)
	}
}

func TestAggregateAndSortAndFilterNodes(t *testing.T) {
	s := baseSchema()
	scan := NewTableScan("t", s, nil, nil, false)
	agg := NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggCount, Name: "n"}})
	if agg.Schema().Len() != 1 || agg.Op() != OpAggregate {
		t.Fatal("aggregate node")
	}
	srt := NewSort(scan, []int{0}, true)
	if srt.Schema() != scan.Schema() || srt.Op() != OpSort {
		t.Fatal("sort node")
	}
	if NewSort(scan, []int{0}, false).Signature() == srt.Signature() {
		t.Fatal("sort direction must change signature")
	}
	f := NewFilter(scan, expr.True{})
	if f.Schema() != scan.Schema() || f.Op() != OpFilter {
		t.Fatal("filter node")
	}
	p := NewProject(scan, []expr.Expr{expr.Col(0)}, []string{"x"})
	if p.Schema().Len() != 1 || p.Schema().Cols[0].Name != "x" {
		t.Fatal("project node")
	}
	p2 := NewProject(scan, []expr.Expr{expr.Col(0), expr.Col(1)}, nil)
	if p2.Schema().Cols[1].Name != "e1" {
		t.Fatal("default project names")
	}
}

func TestUpdateNeverMatches(t *testing.T) {
	rows := []tuple.Tuple{{tuple.I64(1)}}
	u1 := NewUpdate("t", rows)
	u2 := NewUpdate("t", rows)
	if u1.Signature() == u2.Signature() {
		t.Fatal("two identical updates must have distinct signatures")
	}
	if u1.Op() != OpUpdate || u1.Children() != nil {
		t.Fatal("update shape")
	}
	if u1.Schema().Len() != 1 {
		t.Fatal("update schema")
	}
}

func TestWalkAndCount(t *testing.T) {
	s := baseSchema()
	l := NewTableScan("l", s, nil, nil, false)
	r := NewTableScan("r", s, nil, nil, false)
	j := NewHashJoin(l, r, 0, 0)
	root := NewAggregate(j, []expr.AggSpec{{Kind: expr.AggCount}})
	var order []OpType
	Walk(root, func(n Node) { order = append(order, n.Op()) })
	if len(order) != 4 {
		t.Fatalf("walk visited %d nodes", len(order))
	}
	// Children before parents.
	if order[len(order)-1] != OpAggregate {
		t.Fatalf("walk order: %v", order)
	}
	if CountNodes(root) != 4 {
		t.Fatal("CountNodes")
	}
}

func TestSubtreeSignatureComposition(t *testing.T) {
	s := baseSchema()
	mk := func(c int64) Node {
		scan := NewTableScan("t", s, expr.EQ(expr.Col(0), expr.CInt(c)), nil, false)
		return NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggCount}})
	}
	if mk(1).Signature() != mk(1).Signature() {
		t.Fatal("identical trees must match")
	}
	if mk(1).Signature() == mk(2).Signature() {
		t.Fatal("different leaf constants must propagate to root signature")
	}
}
