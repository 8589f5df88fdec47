package sm

import "fmt"

// ClusteredMutationError reports an UPDATE or DELETE against a table with a
// clustered index. Clustered tables are bulk-built, read-mostly structures in
// this engine (the paper's experiments never mutate them); in-place mutation
// would desynchronize the key-ordered leaf copies from the heap, so the
// storage manager refuses with a typed error instead of corrupting silently.
type ClusteredMutationError struct {
	Table string
}

func (e *ClusteredMutationError) Error() string {
	return fmt.Sprintf("sm: table %q has a clustered index; UPDATE/DELETE are not supported on clustered tables", e.Table)
}

// TxDoneError reports a use of a transaction after Commit or Rollback.
type TxDoneError struct{}

func (e *TxDoneError) Error() string { return "sm: transaction already finished" }

// TornScanError reports that a table's committed state changed under a scan
// that required a snapshot-consistent view — the OSP sharing fence tripped.
// Query-level table locks make this unreachable in normal operation; the
// error existing (and being checked) is what pins the invariant.
type TornScanError struct {
	Table      string
	Start, End int64 // commit sequence numbers observed at scan start/end
}

func (e *TornScanError) Error() string {
	return fmt.Sprintf("sm: torn scan of %q: commit seq moved %d -> %d mid-scan", e.Table, e.Start, e.End)
}

// CommitRejectedError reports that Commit refused a transaction before its
// commit point: applying the staged writes to the named heap page would
// fail (an UPDATE grew rows past what the page can hold, a row is larger
// than a page, a RID is stale). Nothing was logged and nothing was applied;
// the transaction is over and its locks are released, exactly as after
// Rollback.
type CommitRejectedError struct {
	Table string
	Page  int64 // heap page the writes do not fit; -1 for an oversized insert
	Err   error
}

func (e *CommitRejectedError) Error() string {
	return fmt.Sprintf("sm: commit refused, nothing written: table %q page %d: %v", e.Table, e.Page, e.Err)
}

func (e *CommitRejectedError) Unwrap() error { return e.Err }
