package plan

import (
	"math"
	"testing"

	"qpipe/internal/expr"
	"qpipe/internal/tuple"
)

// TestSignatureGolden pins the bytes of every node kind's and every
// expression kind's signature. Signatures are compared across packets and
// queries, so a change to any of these bytes changes what shares with what.
func TestSignatureGolden(t *testing.T) {
	s := baseSchema()
	scan := NewTableScan("t", s, nil, nil, false)
	c0, c2 := expr.Col(0), expr.NamedCol(2, "c")
	consts := expr.AndOf(
		expr.EQ(c2, expr.CFloat(0.1)),
		expr.LT(c2, expr.CFloat(1e21)),
		expr.GE(c2, expr.CFloat(math.Copysign(0, -1))),
		expr.NE(c2, expr.CFloat(math.Inf(1))),
		expr.NE(c2, expr.CFloat(math.Inf(-1))),
		expr.NE(c2, expr.CFloat(math.NaN())),
		expr.LE(expr.Col(0), expr.CDate(19000)),
		expr.GT(expr.Col(1), expr.CStr("a;b|c")),
		expr.EQ(c0, expr.CInt(-42)),
		expr.EQ(c0, &expr.Const{}),
	)
	connectives := expr.OrOf(
		expr.NotOf(expr.True{}),
		expr.False{},
		expr.InOf(expr.Col(1), tuple.Str("x"), tuple.I64(3), tuple.F64(2.5), tuple.Date(7)),
		&expr.Between{E: c2, Lo: tuple.F64(-1.5), Hi: tuple.I64(1 << 40), LoX: true},
		expr.EQ(expr.Add(c0, expr.Mul(c0, expr.CInt(2))), expr.Div(expr.Sub(c2, expr.CFloat(1)), c2)),
		expr.EQ(expr.CondOf(expr.GT(c0, expr.CInt(0)), c0, expr.CInt(0)), c0),
	)
	specs := []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: c2}, {Kind: expr.AggMin, Arg: c0}, {Kind: expr.AggMax, Arg: c0}, {Kind: expr.AggAvg, Arg: expr.Mul(c0, c2)}}

	iscan := NewIndexScan("t", s, "a", tuple.I64(3), tuple.Value{}, true, true, expr.GT(c2, expr.CFloat(0.5)), []int{2})
	split := *iscan
	split.LeafFrom, split.LeafTo = 2, 9
	top, _ := WithTopN(NewSort(scan, []int{0, 2}, true), 10)
	insert := NewUpdate("t", []tuple.Tuple{{tuple.I64(1)}, {tuple.I64(2)}})
	update := NewUpdateWhere("t", expr.EQ(c0, expr.CInt(1)), []Assign{{Col: 2, E: expr.CFloat(0)}})
	del := NewDelete("t", nil)
	insert.seq, update.seq, del.seq = 7, 8, 9

	for _, tc := range []struct {
		name string
		n    Node
		want string
	}{
		{"tscan", scan, `tscan(t;true;[];false)`},
		{"tscan ordered, every column", NewTableScan("t", s, nil, nil, true), `tscan(t;true;[];true)`},
		{"tscan no column", NewTableScan("t", s, nil, []int{}, false), `tscan(t;true;[none];false)`},
		{"tscan constants", NewTableScan("t", s, consts, []int{2, 0}, false), `tscan(t;and((c2=k2:0.1),(c2<k2:1e+21),(c2>=k2:-0),(c2<>k2:+Inf),(c2<>k2:-Inf),(c2<>k2:NaN),(c0<=k4:d19000),(c1>k3:a;b|c),(c0=k1:-42),(c0=k0:<invalid>));[2 0];false)`},
		{"tscan connectives", NewTableScan("t", s, connectives, []int{1}, false), `tscan(t;or(not(true),false,in(c1;x,3,2.5,d7),btw(c2;-1.5;1099511627776;true;false),((c0+(c0*k1:2))=((c2-k2:1)/c2)),(cond((c0>k1:0);c0;k1:0)=c0));[1];false)`},
		{"iscan", iscan, `iscan(t;a;3;<invalid>;true;true;(c2>k2:0.5);[2];0:-1)`},
		{"iscan leaf range", &split, `iscan(t;a;3;<invalid>;true;true;(c2>k2:0.5);[2];2:9)`},
		{"iscan open", NewIndexScan("t", s, "b", tuple.Value{}, tuple.Str("m"), false, false, nil, nil), `iscan(t;b;<invalid>;m;false;false;true;[];0:-1)`},
		{"filter", NewFilter(scan, expr.True{}), `filter(true;tscan(t;true;[];false))`},
		{"project", NewProject(scan, []expr.Expr{c2, expr.Add(c0, expr.CInt(1))}, []string{"c", "d"}), `project(c2,(c0+k1:1);tscan(t;true;[];false))`},
		{"project empty", NewProject(scan, nil, nil), `project(;tscan(t;true;[];false))`},
		{"sort", NewSort(scan, []int{1}, false), `sort([1];false;tscan(t;true;[];false))`},
		{"top-n", top, `sort([0 2];true;top=10;tscan(t;true;[];false))`},
		{"mjoin", NewMergeJoin(scan, &split, 0, 1, true), `mjoin(0=1;tscan(t;true;[];false)|iscan(t;a;3;<invalid>;true;true;(c2>k2:0.5);[2];2:9))`},
		{"hjoin", NewHashJoin(scan, iscan, 0, 0), `hjoin(0=0;tscan(t;true;[];false)|iscan(t;a;3;<invalid>;true;true;(c2>k2:0.5);[2];0:-1))`},
		{"nljoin", NewNLJoin(scan, scan, expr.LT(c0, expr.Col(3))), `nljoin((c0<c3);tscan(t;true;[];false)|tscan(t;true;[];false))`},
		{"agg", NewAggregate(scan, specs), `agg(count(*),sum(c2),min(c0),max(c0),avg((c0*c2));tscan(t;true;[];false))`},
		{"groupby", NewGroupBy(scan, []int{1, 0}, specs[:2]), `groupby([1 0];count(*),sum(c2);tscan(t;true;[];false))`},
		{"groupby no keys", NewGroupBy(scan, nil, specs[:1]), `groupby([];count(*);tscan(t;true;[];false))`},
		{"insert", insert, `update(t;2;#7)`},
		{"update", update, `update(t;(c0=k1:1);#8)`},
		{"delete", del, `delete(t;true;#9)`},
	} {
		if got := tc.n.Signature(); got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
