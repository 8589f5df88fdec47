package qpipe

import (
	"time"

	"qpipe/internal/core"
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

// DeadlockInterval is db's deadlock detector period, for the external tests
// that let the detector look several times before they assert it found
// nothing.
func DeadlockInterval(db *DB) time.Duration { return db.rt.Cfg.DeadlockInterval }
