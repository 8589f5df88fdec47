package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd drives run() the way main does, capturing both streams.
func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestListAnalyzers(t *testing.T) {
	code, stdout, stderr := runCmd("-list")
	if code != 0 {
		t.Fatalf("-list exit %d, stderr %q", code, stderr)
	}
	for _, name := range []string{"rowlint", "walint"} {
		if !strings.Contains(stdout, name+": ") {
			t.Errorf("-list output missing %s:\n%s", name, stdout)
		}
	}
	if n := strings.Count(stdout, "\n"); n != 2 {
		t.Errorf("-list printed %d analyzers, want 2:\n%s", n, stdout)
	}
}

// TestOneDriver: the go vet handshake is gone, so -V is an unknown flag.
func TestOneDriver(t *testing.T) {
	if code, _, _ := runCmd("-V=full"); code != 1 {
		t.Fatalf("-V=full exit %d, want 1 (usage error)", code)
	}
}

// TestUnknownAnalyzerName: a typoed -analyzers selection must be a loud
// error naming the known set, never a silently empty run.
func TestUnknownAnalyzerName(t *testing.T) {
	code, _, stderr := runCmd("-analyzers", "rowlint,nosuch", "./...")
	if code != 1 {
		t.Fatalf("unknown analyzer exit %d, want 1; stderr %q", code, stderr)
	}
	if !strings.Contains(stderr, `unknown analyzer "nosuch"`) || !strings.Contains(stderr, "known:") {
		t.Fatalf("unknown-analyzer error must name the typo and the known set, got %q", stderr)
	}
}

// TestStandaloneEndToEnd builds a throwaway module containing a heap
// stand-in, a real violation, a valid suppression, and a malformed one, and
// asserts the driver reports exactly the right lines.
func TestStandaloneEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmp\n\ngo 1.24\n")
	write("heap/heap.go", `package heap

type File struct{}

func (f *File) Append(row []byte) (int64, error) { return 0, nil }
`)
	write("use/use.go", `package use

import "tmp/heap"

func load(f *heap.File, row []byte) {
	f.Append(row)
	f.Append(row) //qpipelint:ignore walint suppressed in the end-to-end test
	f.Append(row) //qpipelint:ignore nosuch typo of an analyzer name
}
`)
	t.Chdir(dir)

	code, stdout, stderr := runCmd("./...")
	if code != 2 {
		t.Fatalf("exit %d, want 2 (diagnostics)\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	checks := []struct {
		desc, substr string
		want         bool
	}{
		{"unsuppressed violation on line 6", "use.go:6", true},
		{"validly suppressed line 7", "use.go:7:2", false},
		{"malformed directive reported", `unknown analyzer "nosuch"`, true},
		{"violation under malformed directive still reported", "use.go:8:2", true},
	}
	for _, c := range checks {
		if strings.Contains(stdout, c.substr) != c.want {
			t.Errorf("%s: want contains(%q)=%v in output:\n%s", c.desc, c.substr, c.want, stdout)
		}
	}
}
