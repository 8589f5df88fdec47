package qpipe

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"qpipe/wire"
)

// The log's backing file is written in place, so a kill -9 inside the pwrite
// of a flush can leave the segment's last block part old and part new. These
// tests build both such images on real files and require recovery to return
// every commit acknowledged before the interrupted flush.

const (
	tornBlock = 8192 // Options.BlockSize's default
	tornHalf  = 4096 // the kernel's page: the unit an 8 kB pwrite can tear at
)

// lastSegment returns the path of the newest WAL segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal:*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment in %s: %v", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	entries, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTornWALTailKeepsAcknowledgedCommits(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTable("tt", NewSchema(ColDef("id", KindInt), ColDef("note", KindString))); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Acknowledged commits, until the log's tail sits shortly before the
	// middle of its block: the next flush then rewrites both halves.
	acked := 0
	for {
		off := int(db.mgr.WAL().LSN()&0xffffffff) % tornBlock
		if off > tornHalf-1000 && off < tornHalf-200 {
			break
		}
		if acked > 500 {
			t.Fatal("log tail never reached the middle of a block")
		}
		if _, err := db.Exec(ctx, fmt.Sprintf("INSERT INTO tt VALUES (%d, 'acknowledged')", acked)); err != nil {
			t.Fatal(err)
		}
		acked++
	}
	seg := lastSegment(t, dir)
	before, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// The flush that is "interrupted": a record long enough to straddle the
	// half. Its commit is the one nobody was told about.
	if _, err := db.Exec(ctx, fmt.Sprintf("INSERT INTO tt VALUES (-1, '%s')", strings.Repeat("x", 2500))); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if lastSegment(t, dir) != seg || len(after) != len(before) || len(after)%tornBlock != 0 {
		t.Fatalf("flush did not rewrite the tail block in place: %d -> %d bytes", len(before), len(after))
	}
	last := len(after) - tornBlock
	mid := last + tornHalf
	if string(before[last:mid]) == string(after[last:mid]) || string(before[mid:]) == string(after[mid:]) {
		t.Fatal("the flush did not change both halves of the tail block; the test tears nothing")
	}

	for name, torn := range map[string][]byte{
		"first-half-new":  append(append([]byte(nil), after[:mid]...), before[mid:]...),
		"second-half-new": append(append(append([]byte(nil), after[:last]...), before[last:mid]...), after[mid:]...),
	} {
		t.Run(name, func(t *testing.T) {
			crashed := t.TempDir()
			copyDir(t, dir, crashed)
			if err := os.WriteFile(filepath.Join(crashed, filepath.Base(seg)), torn, 0o644); err != nil {
				t.Fatal(err)
			}
			db2, err := Open(Options{Dir: crashed})
			if err != nil {
				t.Fatalf("recovery from a torn tail block: %v", err)
			}
			defer db2.Close()
			if n := count(t, db2, "SELECT count(*) AS n FROM tt WHERE id >= 0"); n != int64(acked) {
				t.Fatalf("recovered %d of %d acknowledged commits", n, acked)
			}
		})
	}
}

// TestGrowingUpdateFailsBeforeCommitPoint: an UPDATE that grows the rows of
// a full page cannot be applied in place. It must be refused before anything
// is logged — typed, nothing changed, the database still recoverable — not
// after the commit record is durable.
func TestGrowingUpdateFailsBeforeCommitPoint(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Exec(ctx, "CREATE TABLE n (id INT, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	var ins strings.Builder
	ins.WriteString("INSERT INTO n VALUES (0, 'a')")
	for i := 1; i < 2000; i++ {
		fmt.Fprintf(&ins, ", (%d, 'a')", i)
	}
	if _, err := db.Exec(ctx, ins.String()); err != nil {
		t.Fatal(err)
	}
	lsn := db.mgr.WAL().LSN()
	_, err = db.Exec(ctx, fmt.Sprintf("UPDATE n SET note = '%s' WHERE id < 400", strings.Repeat("y", 50)))
	var rejected *CommitRejectedError
	if !errors.As(err, &rejected) {
		t.Fatalf("growing UPDATE: got %v, want *CommitRejectedError", err)
	}
	if got := db.mgr.WAL().LSN(); got != lsn {
		t.Fatalf("refused commit moved the log from %d to %d", lsn, got)
	}
	if n := count(t, db, "SELECT count(*) AS n FROM n WHERE note = 'a'"); n != 2000 {
		t.Fatalf("refused commit changed the table: %d of 2000 rows untouched", n)
	}
	// Over the wire it is a StatementError under an existing code.
	we := MarshalWireError(err)
	var st *StatementError
	if we.Code != wire.CodeStatement || !errors.As(UnmarshalWireError(we), &st) || st.Stmt != "COMMIT" {
		t.Fatalf("wire form: code %d, %v", we.Code, UnmarshalWireError(we))
	}
	// An update that fits still commits, and the directory still recovers.
	if _, err := db.Exec(ctx, "UPDATE n SET note = 'b' WHERE id < 400"); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopening: %v", err)
	}
	defer db2.Close()
	if n := count(t, db2, "SELECT count(*) AS n FROM n WHERE note = 'b'"); n != 400 {
		t.Fatalf("recovered %d updated rows, want 400", n)
	}
}

// openFilesUnder counts this process's descriptors on files inside dir.
func openFilesUnder(t *testing.T, dir string) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestLogHandleDoesNotLeak: the log keeps one backing handle — the current
// segment's — through rotations and checkpoints, and none after Close.
func TestLogHandleDoesNotLeak(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Options{Dir: dir, BlockSize: 512, WALSegmentBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Exec(ctx, "CREATE TABLE h (id INT, note TEXT)"); err != nil {
		t.Fatal(err)
	}
	first := filepath.Base(lastSegment(t, dir))
	for i := 0; i < 200; i++ {
		if _, err := db.Exec(ctx, fmt.Sprintf("INSERT INTO h VALUES (%d, 'some row text to fill the log')", i)); err != nil {
			t.Fatal(err)
		}
		if i%50 == 49 {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if n := openFilesUnder(t, dir); n > 1 {
			t.Fatalf("after commit %d: %d descriptors open under the database directory, want at most 1", i, n)
		}
	}
	if last := filepath.Base(lastSegment(t, dir)); last == first {
		t.Fatalf("the log never rotated (still on %s); the test exercised nothing", last)
	}
	db.Close()
	if n := openFilesUnder(t, dir); n != 0 {
		t.Fatalf("%d descriptors still open under the database directory after Close", n)
	}
}
