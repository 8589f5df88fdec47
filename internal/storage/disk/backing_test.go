package disk

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// durableImage is the model's durable content of every file that would
// survive CrashDropVolatile: blocks below durableLen, with the pre-image of
// each one overwritten since the last sync.
func durableImage(d *Disk) map[string][][]byte {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make(map[string][][]byte)
	for name, f := range d.files {
		f.mu.RLock()
		if f.durableExists {
			blocks := make([][]byte, f.durableLen)
			for i := range blocks {
				blocks[i] = f.blocks[i]
				if img, ok := f.saved[int64(i)]; ok {
					blocks[i] = img
				}
			}
			out[name] = blocks
		}
		f.mu.RUnlock()
	}
	return out
}

// requireBackingEqualsDurable reopens the backing directory with a fresh
// device and compares it, block for block, with d's durable image. Files in
// truncated are left out: Truncate discards durable blocks from the model at
// once, from the backing file at the file's next sync.
func requireBackingEqualsDurable(t *testing.T, d *Disk, step string, truncated map[string]bool) {
	t.Helper()
	d2, err := Open(d.cfg)
	if err != nil {
		t.Fatalf("%s: reopening backing dir: %v", step, err)
	}
	want := durableImage(d)
	var got []string
	for _, name := range d2.FilesWithPrefix("") {
		if !truncated[name] {
			got = append(got, name)
		}
	}
	for name := range truncated {
		delete(want, name)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: backing dir holds files %v, durable image has %d files", step, got, len(want))
	}
	for name, blocks := range want {
		if n := d2.NumBlocks(name); n != len(blocks) || !d2.Exists(name) {
			t.Fatalf("%s: %s: backing file has %d blocks, durable image %d", step, name, n, len(blocks))
		}
		for i, b := range blocks {
			got, err := d2.Read(name, int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, b) {
				t.Fatalf("%s: %s block %d differs from the durable image", step, name, i)
			}
		}
	}
}

// TestBackingDirMirrorsDurableImage drives seeded sequences of every
// operation that changes a file, with both persist behaviours (one file
// always synced in place, one always replaced atomically, one by whichever
// the dice say), and after every step requires the backing directory to
// hold exactly the durable image: what a kill -9 there would leave.
func TestBackingDirMirrorsDurableImage(t *testing.T) {
	names := []string{"wal:inplace", "tbl:atomic", "mix:either"}
	for seed := int64(0); seed < 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d, err := Open(Config{BlockSize: 64, BackingDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			block := func() []byte {
				b := make([]byte, 1+rng.Intn(64))
				rng.Read(b)
				return b
			}
			truncated := make(map[string]bool)
			for step := 0; step < 120; step++ {
				name := names[rng.Intn(len(names))]
				op := "create"
				if !d.Exists(name) {
					d.Create(name)
				} else {
					switch k := rng.Intn(12); {
					case k < 4:
						op = "append"
						if _, err := d.Append(name, block()); err != nil {
							t.Fatal(err)
						}
					case k < 6:
						op = "write"
						if n := d.NumBlocks(name); n > 0 {
							if err := d.Write(name, int64(rng.Intn(n)), block()); err != nil {
								t.Fatal(err)
							}
						}
					case k < 7:
						op = "truncate"
						if err := d.Truncate(name, int64(rng.Intn(d.NumBlocks(name)+1))); err != nil {
							t.Fatal(err)
						}
						truncated[name] = true
					case k < 8:
						op = "remove"
						d.Remove(name)
						delete(truncated, name)
					case k < 9:
						op = "create-over"
						d.Create(name)
						delete(truncated, name)
					case k < 10:
						op = "release"
						if err := d.ReleaseHandle(name); err != nil {
							t.Fatal(err)
						}
					default:
						inPlace := name == names[0] || (name == names[2] && rng.Intn(2) == 0)
						if inPlace {
							op = "sync-in-place"
							err = d.SyncInPlace(name, nil)
						} else {
							op = "sync"
							err = d.Sync(name)
						}
						if err != nil {
							t.Fatal(err)
						}
						delete(truncated, name)
					}
				}
				requireBackingEqualsDurable(t, d, fmt.Sprintf("step %d (%s %s)", step, op, name), truncated)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			for name, f := range d.files {
				if f.fh != nil {
					t.Errorf("%s: backing handle still open after Close", name)
				}
			}
			if tmp, _ := filepath.Glob(filepath.Join(d.cfg.BackingDir, "*.tmp")); len(tmp) != 0 {
				t.Errorf("temp files left behind: %v", tmp)
			}
		})
	}
}

// TestCleanSyncWritesNothing: Sync on a file with no volatile block and an
// up-to-date backing file must not touch the OS file (the atomic replace
// would give the name a new inode); one dirty block brings the replace back.
func TestCleanSyncWritesNothing(t *testing.T) {
	d, err := Open(Config{BlockSize: 64, BackingDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	d.Create("tbl:t")
	for i := 0; i < 4; i++ {
		d.Append("tbl:t", []byte{byte(i)})
	}
	if err := d.Sync("tbl:t"); err != nil {
		t.Fatal(err)
	}
	path := d.backingPath("tbl:t")
	first, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sync("tbl:t"); err != nil {
		t.Fatal(err)
	}
	second, _ := os.Stat(path)
	if !os.SameFile(first, second) {
		t.Fatal("Sync of a clean file replaced its backing file")
	}
	// The same holds for a file a fresh process loaded from the directory.
	d2, err := Open(d.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Sync("tbl:t"); err != nil {
		t.Fatal(err)
	}
	if third, _ := os.Stat(path); !os.SameFile(first, third) {
		t.Fatal("Sync of a freshly loaded, untouched file replaced its backing file")
	}
	if err := d.Write("tbl:t", 2, []byte("dirty")); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync("tbl:t"); err != nil {
		t.Fatal(err)
	}
	if fourth, _ := os.Stat(path); os.SameFile(first, fourth) {
		t.Fatal("Sync of a dirty file did not replace its backing file")
	}
	requireBackingEqualsDurable(t, d, "after dirty sync", nil)
}

// TestSyncInPlaceHookLeavesAscendingPrefix: a panic from the between
// callback leaves exactly the lower-numbered volatile blocks durable, and no
// lock held.
func TestSyncInPlaceHookLeavesAscendingPrefix(t *testing.T) {
	d := New(Config{BlockSize: 16})
	d.Create("wal:x")
	for i := 0; i < 3; i++ {
		d.Append("wal:x", []byte{byte('a' + i)})
	}
	if err := d.SyncInPlace("wal:x", nil); err != nil {
		t.Fatal(err)
	}
	d.Write("wal:x", 1, []byte("B")) // volatile: block 1 (overwritten) ...
	d.Append("wal:x", []byte("d"))   // ... block 3 and block 4 (appended)
	d.Append("wal:x", []byte("e"))
	calls := 0
	func() {
		defer func() { recover() }()
		d.SyncInPlace("wal:x", func() {
			if calls++; calls == 2 {
				panic("kill")
			}
		})
	}()
	d.Crash(CrashDropVolatile)
	if n := d.NumBlocks("wal:x"); n != 4 {
		t.Fatalf("after a kill before the third volatile block: %d blocks, want 4", n)
	}
	for no, want := range []byte{'a', 'B', 'c', 'd'} {
		b, err := d.Read("wal:x", int64(no))
		if err != nil || b[0] != want {
			t.Fatalf("block %d = %q (%v), want %q", no, b[0], err, want)
		}
	}
}

// TestCrashKeepPrefix: the prefix mode keeps an ascending prefix of each
// file's volatile blocks, replays under a seed, and over the seeds reaches
// both extremes.
func TestCrashKeepPrefix(t *testing.T) {
	build := func() *Disk {
		d := New(Config{BlockSize: 16})
		d.Create("f")
		for i := 0; i < 3; i++ {
			d.Append("f", []byte{'o'})
		}
		d.Sync("f")
		d.Write("f", 0, []byte{'n'})
		d.Write("f", 2, []byte{'n'})
		d.Append("f", []byte{'n'})
		d.Append("f", []byte{'n'})
		return d
	}
	image := func(d *Disk) string {
		var s []byte
		for i := 0; i < d.NumBlocks("f"); i++ {
			b, _ := d.Read("f", int64(i))
			s = append(s, b[0])
		}
		return string(s)
	}
	// Volatile blocks in order: 0, 2, 3, 4.
	prefixes := map[string]bool{"ooo": true, "noo": true, "non": true, "nonn": true, "nonnn": true}
	seen := make(map[string]bool)
	for seed := int64(0); seed < 40; seed++ {
		d := build()
		d.CrashSeeded(CrashKeepPrefix, seed)
		got := image(d)
		if !prefixes[got] {
			t.Fatalf("seed %d: image %q is not an ascending prefix of the volatile blocks", seed, got)
		}
		again := build()
		again.CrashSeeded(CrashKeepPrefix, seed)
		if image(again) != got {
			t.Fatalf("seed %d does not replay: %q then %q", seed, got, image(again))
		}
		seen[got] = true
	}
	if !seen["ooo"] || !seen["nonnn"] {
		t.Fatalf("40 seeds never produced both extremes: %v", seen)
	}
}

// BenchmarkSyncAppendDir measures one log flush on real files: rewrite the
// 8 kB tail block of a segment and fsync it, on a segment that already holds
// 1, 64 and 255 blocks. The cost must not depend on that number.
func BenchmarkSyncAppendDir(b *testing.B) {
	for _, held := range []int{1, 64, 255} {
		b.Run(fmt.Sprintf("blocks=%d", held), func(b *testing.B) {
			d, err := Open(Config{BackingDir: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			const seg = "wal:00000001"
			d.Create(seg)
			block := make([]byte, DefaultBlockSize)
			for i := 0; i < held; i++ {
				if _, err := d.Append(seg, block); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.SyncInPlace(seg, nil); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(DefaultBlockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				block[i%len(block)]++
				if err := d.Write(seg, int64(held-1), block); err != nil {
					b.Fatal(err)
				}
				if err := d.SyncInPlace(seg, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
