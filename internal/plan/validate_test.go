package plan

import (
	"testing"

	"qpipe/internal/expr"
)

// TestValidateNamesTheBadReference: the error names the expression that
// holds an out-of-range column, rendered only once there is an error.
func TestValidateNamesTheBadReference(t *testing.T) {
	scan := NewTableScan("t", baseSchema(), nil, nil, false)
	for _, tc := range []struct {
		n    Node
		want string
	}{
		{NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggCount}, {Kind: expr.AggSum, Arg: expr.Col(5)}}),
			"plan: invalid agg node: sum(c5) references column 5 of a 3-column input"},
		{NewGroupBy(scan, []int{0}, []expr.AggSpec{{Kind: expr.AggMax, Arg: expr.Add(expr.Col(1), expr.Col(3))}}),
			"plan: invalid groupby node: max((c1+c3)) references column 3 of a 3-column input"},
		{NewProject(scan, []expr.Expr{expr.Col(0), expr.Col(-1)}, nil),
			"plan: invalid project node: expression 1 references column -1 of a 3-column input"},
		{NewFilter(scan, expr.EQ(expr.Col(4), expr.CInt(1))),
			"plan: invalid filter node: predicate references column 4 of a 3-column input"},
		{NewTableScan("t", baseSchema(), expr.EQ(expr.Col(3), expr.CInt(1)), nil, false),
			"plan: invalid tscan node: filter references column 3 of a 3-column input"},
	} {
		if err := Validate(tc.n); err == nil || err.Error() != tc.want {
			t.Errorf("Validate = %v, want %s", err, tc.want)
		}
	}
	if err := Validate(NewAggregate(scan, []expr.AggSpec{{Kind: expr.AggSum, Arg: expr.Col(2)}})); err != nil {
		t.Errorf("a valid plan: %v", err)
	}
}
