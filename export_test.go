package qpipe

import (
	"qpipe/internal/core"
	"qpipe/internal/ops"
	"qpipe/internal/storage/disk"
)

// DiskOf exposes a DB's simulated disk to the external (package qpipe_test)
// network tests, which need fault injection and the temp-file leak check
// but cannot live in package qpipe: they import qpipe/client, which imports
// qpipe back.
func DiskOf(db *DB) *disk.Disk { return db.mgr.Disk }

// QueryOf exposes a Result's engine query to the external tests that script
// an arrival: its packets (what was handed down to which of them) and its
// result buffer (a statement is held when its producer is PutBlocked).
func QueryOf(r *Result) *core.Query { return r.q }

// OpenWithoutDeadlockDetector is Open with the engine's deadlock detector
// off, for the external tests that hold a table with an unread embedded
// result while a wire statement waits on a scan riding it. Every result
// read outside the engine is one node of the detector's Waits-For graph
// (consumer 0), so the held scan and the server's wait on the other result
// close a cycle through it, and within one period the detector would lift
// the hold (SetUnbounded) and let the waiting statement finish.
func OpenWithoutDeadlockDetector(opts Options) (*DB, error) {
	db, err := Open(opts)
	if err != nil {
		return nil, err
	}
	cfg := db.rt.Cfg
	cfg.DeadlockInterval = -1
	db.rt.Close()
	db.rt = core.NewRuntime(db.mgr, cfg, ops.All())
	return db, nil
}
