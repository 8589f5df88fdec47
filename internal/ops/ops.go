// Operator-set assembly.
package ops

import "qpipe/internal/core"

// All returns the full µEngine operator set of the QPipe prototype (§4.4):
// table scan (with circular-scan sharing), index scan (clustered and
// unclustered), filter, project, sort, merge join (with ordered-scan
// split), hybrid hash join, nested-loop join, scalar aggregate, hash
// group-by, and the no-OSP update engine.
func All() []core.Operator {
	iscan := NewIndexScanOp()
	return []core.Operator{
		NewTableScanOp(),
		iscan,
		NewFilterOp(),
		NewProjectOp(),
		NewSortOp(),
		NewMergeJoinOp(iscan),
		NewHashJoinOp(),
		NewNLJoinOp(),
		NewAggregateOp(),
		NewGroupByOp(),
		NewUpdateOp(),
	}
}
