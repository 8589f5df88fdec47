package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"qpipe"
	"qpipe/internal/core/tbuf"
	"qpipe/internal/storage/buffer"
	"qpipe/internal/storage/disk"
	"qpipe/internal/storage/heap"
	"qpipe/internal/storage/lock"
	"qpipe/internal/storage/page"
	"qpipe/internal/storage/sm"
	"qpipe/internal/storage/wal"
	"qpipe/internal/tuple"
	"qpipe/wire"
)

// Kernels time one layer's exported functions on the generated rows, with
// fixed iteration counts. Until there are spans inside the engine, kernel
// cost times the window's counters (pages pinned, rows, batches) is the
// estimate of where engine time goes.

const (
	kernelRows   = 20000 // orders rows the kernels work on
	kernelRounds = 5     // each kernel reports the median round
	batchRows    = 64    // the engine's default batch
)

// kernel is one measurement: run does a fixed amount of work and returns
// the cost per unit, and a second value when the same loop yields one
// (allocations, pins).
type kernel struct {
	name, unit string
	extra      string
	run        func(f *fixture) (v, extra float64)
}

type fixture struct {
	ctx     context.Context
	rows    []qpipe.Row
	encoded [][]byte
	pages   [][]byte // the rows as full slotted pages
	batch   []byte   // one encoded wire batch
	db      *qpipe.DB
	sm      *sm.Manager
	table   *sm.Table
	cold    *buffer.Pool // too small for the table: every pin misses
	dir     string
	err     error
}

func (f *fixture) fail(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// per times work() and returns nanoseconds per unit.
func per(units int, work func()) float64 {
	t0 := time.Now()
	work()
	return float64(time.Since(t0)) / float64(units)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

var kernels = []kernel{
	{name: "tuple.encode_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		var buf []byte
		return per(len(f.rows), func() {
			for _, r := range f.rows {
				buf = r.Encode(buf[:0])
			}
		}), 0
	}},
	{name: "tuple.decode_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		var arena tuple.RowArena
		return per(len(f.encoded), func() {
			for _, e := range f.encoded {
				_, _, err := tuple.DecodeArena(e, 5, &arena)
				f.fail(err)
			}
		}), 0
	}},
	{name: "tuple.hash_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		var h uint64
		keys := []int{1, 2}
		v := per(len(f.rows), func() {
			for _, r := range f.rows {
				h ^= tuple.HashAt(r, keys)
			}
		})
		sink = h
		return v, 0
	}},
	{name: "tuple.compare_ns", unit: "ns", run: func(f *fixture) (float64, float64) {
		var c int
		keys := []int{4, 0}
		v := per(len(f.rows)-1, func() {
			for i := 1; i < len(f.rows); i++ {
				c += tuple.CompareAt(f.rows[i-1], f.rows[i], keys)
			}
		})
		sink = uint64(c)
		return v, 0
	}},
	{name: "page.decode_ns_per_page", unit: "ns", extra: "page.decode_allocs_per_page", run: func(f *fixture) (float64, float64) {
		before := mallocs()
		v := per(len(f.pages), func() {
			for _, p := range f.pages {
				_, err := page.FromBytes(p).Tuples(5)
				f.fail(err)
			}
		})
		return v, float64(mallocs()-before) / float64(len(f.pages))
	}},
	{name: "page.insert_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		var scratch []byte
		return per(len(f.rows), func() {
			p := page.New(disk.DefaultBlockSize)
			for _, r := range f.rows {
				if !p.HasRoomFor(r.EncodedSize()) {
					p = page.New(disk.DefaultBlockSize)
				}
				var err error
				_, scratch, err = p.InsertTupleScratch(r, scratch)
				f.fail(err)
			}
		}), 0
	}},
	{name: "heap.readpage_ns_per_page", unit: "ns", run: func(f *fixture) (float64, float64) {
		n := int(f.table.Heap.NumPages())
		return per(n, func() {
			for p := 0; p < n; p++ {
				_, err := f.table.Heap.ReadPage(int64(p))
				f.fail(err)
			}
		}), 0
	}},
	{name: "heap.append_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		h := heap.Create(f.sm.Pool, f.sm.TempName("kernel"), f.table.Schema)
		defer f.sm.DropTemp(h.Name)
		return per(len(f.rows), func() {
			for _, r := range f.rows {
				_, err := h.Append(r) //qpipelint:ignore walint the kernel times the bulk-load primitive on a temp file that is no table
				f.fail(err)
			}
			f.fail(h.Sync())
		}), 0
	}},
	{name: "tbuf.put_get_ns_per_batch", unit: "ns", run: func(f *fixture) (float64, float64) {
		pool := tbuf.NewBatchPool(batchRows)
		buf := tbuf.New(8).UsePool(pool)
		n := len(f.rows) / batchRows
		return per(n, func() {
			for i := 0; i < n; i++ {
				b := append(pool.Get(), f.rows[i*batchRows:(i+1)*batchRows]...)
				f.fail(buf.Put(b))
				got, err := buf.Get()
				f.fail(err)
				buf.Recycle(got)
			}
		}), 0
	}},
	{name: "tbuf.fanout2_ns_per_batch", unit: "ns", run: func(f *fixture) (float64, float64) {
		pool := tbuf.NewBatchPool(batchRows)
		host, satellite := tbuf.New(8).UsePool(pool), tbuf.New(8).UsePool(pool)
		out := tbuf.NewSharedOut(host, 0).UsePool(pool)
		out.Attach(satellite)
		n := len(f.rows) / batchRows
		return per(n, func() {
			for i := 0; i < n; i++ {
				b := append(out.NewBatch(batchRows), f.rows[i*batchRows:(i+1)*batchRows]...)
				f.fail(out.Put(b))
				for _, consumer := range []*tbuf.Buffer{host, satellite} {
					got, err := consumer.Get()
					f.fail(err)
					consumer.Recycle(got)
				}
			}
		}), 0
	}},
	{name: "btree.search_ns", unit: "ns", extra: "btree.pins_per_search", run: func(f *fixture) (float64, float64) {
		tree := f.table.Unclustered["oid"]
		before := f.sm.Pool.Stats()
		const n = 1000
		v := per(n, func() {
			for _, r := range f.rows[:n] {
				hits, err := tree.Search(r[0])
				f.fail(err)
				if len(hits) != 1 {
					f.fail(errWrongAnswers)
				}
			}
		})
		after := f.sm.Pool.Stats()
		return v, float64(after.Hits+after.Misses-before.Hits-before.Misses) / n
	}},
	{name: "ops.indexscan_point_us", unit: "us", run: func(f *fixture) (float64, float64) {
		const n = 500
		return per(n, func() {
			for _, r := range f.rows[:n] {
				res, err := f.db.ScanIndex("orders", "oid", r[0], r[0]).Run(f.ctx)
				if err != nil {
					f.fail(err)
					return
				}
				got, err := res.Discard()
				f.fail(err)
				if got != 1 {
					f.fail(errWrongAnswers)
				}
			}
		}) / 1e3, 0
	}},
	{name: "wire.encode_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		var buf []byte
		n := len(f.rows) / batchRows
		return per(n*batchRows, func() {
			for i := 0; i < n; i++ {
				buf = wire.AppendRowBatch(buf[:0], f.rows[i*batchRows:(i+1)*batchRows])
			}
		}), 0
	}},
	{name: "wire.decode_ns_per_row", unit: "ns", run: func(f *fixture) (float64, float64) {
		var arena tuple.RowArena
		n := len(f.rows) / batchRows
		return per(n*batchRows, func() {
			for i := 0; i < n; i++ {
				_, err := wire.DecodeRowBatch(f.batch, &arena)
				f.fail(err)
			}
		}), 0
	}},
	{name: "wire.frame_ns", unit: "ns", run: func(f *fixture) (float64, float64) {
		var pipe bytes.Buffer
		var buf []byte
		const n = 2000
		return per(n, func() {
			for i := 0; i < n; i++ {
				f.fail(wire.WriteFrame(&pipe, wire.MsgRowBatch, f.batch))
				var err error
				_, _, buf, err = wire.ReadFrame(&pipe, buf)
				f.fail(err)
			}
		}), 0
	}},
	{name: "stats.analyze_ms", unit: "ms", run: func(f *fixture) (float64, float64) {
		return per(1, func() { f.fail(f.db.Analyze("orders")) }) / 1e6, 0
	}},
	{name: "buffer.pin_hit_ns", unit: "ns", run: func(f *fixture) (float64, float64) {
		n := int(f.table.Heap.NumPages())
		const laps = 20
		return per(n*laps, func() {
			for i := 0; i < n*laps; i++ {
				id := buffer.PageID{File: f.table.Heap.Name, Block: int64(i % n)}
				_, err := f.sm.Pool.Pin(id)
				f.fail(err)
				f.sm.Pool.Unpin(id)
			}
		}), 0
	}},
	{name: "buffer.pin_miss_ns", unit: "ns", run: func(f *fixture) (float64, float64) {
		n := int(f.table.Heap.NumPages())
		return per(n, func() {
			for i := 0; i < n; i++ {
				id := buffer.PageID{File: f.table.Heap.Name, Block: int64(i)}
				_, err := f.cold.Pin(id)
				f.fail(err)
				f.cold.Unpin(id)
			}
		}), 0
	}},
	{name: "lock.uncontended_ns", unit: "ns", run: func(f *fixture) (float64, float64) {
		const n = 20000
		return per(n, func() {
			for i := 0; i < n; i++ {
				f.fail(f.sm.Locks.Lock(f.ctx, "orders", lock.Shared))
				f.sm.Locks.Unlock("orders", lock.Shared)
			}
		}), 0
	}},
	{name: "wal.append_us", unit: "us", run: func(f *fixture) (float64, float64) {
		return walKernel(f, "", 2000, false), 0
	}},
	{name: "wal.append_flush_mem_us", unit: "us", run: func(f *fixture) (float64, float64) {
		return walKernel(f, "", 2000, true), 0
	}},
	{name: "wal.append_flush_dir_us", unit: "us", run: func(f *fixture) (float64, float64) {
		return walKernel(f, f.dir, 40, true), 0
	}},
}

var sink uint64 // keeps the compiler from removing a kernel's result

var errWrongAnswers = errors.New("a kernel's lookup did not find exactly its row")

// walKernel appends n batches shaped like the writer's transaction (begin,
// update, insert, commit; the log does not read payloads) to a fresh log,
// in memory or backed by real fsynced files, and returns us per batch.
func walKernel(f *fixture, backing string, n int, flush bool) float64 {
	cfg := disk.Config{}
	if backing != "" {
		dir, err := os.MkdirTemp(backing, "wal-")
		if err != nil {
			f.fail(err)
			return 0
		}
		defer os.RemoveAll(dir)
		cfg.BackingDir = dir
	}
	d, err := disk.Open(cfg)
	if err != nil {
		f.fail(err)
		return 0
	}
	l, err := wal.Open(d, wal.Options{})
	if err != nil {
		f.fail(err)
		return 0
	}
	id := make([]byte, 8)
	batch := []wal.Entry{{Type: wal.TypeBegin, Payload: id},
		{Type: wal.TypeUpdate, Payload: make([]byte, 9+16+int(accountRowBytes))},
		{Type: wal.TypeInsert, Payload: make([]byte, 7+int(eventRowBytes))},
		{Type: wal.TypeCommit, Payload: id}}
	return per(n, func() {
		for i := 0; i < n; i++ {
			_, end, err := l.Append(batch)
			f.fail(err)
			if flush {
				f.fail(l.Flush(end))
			}
		}
	}) / 1e3
}

func newFixture(ctx context.Context, d *dataset, dir string) (*fixture, error) {
	f := &fixture{ctx: ctx, rows: d.orders[:min(len(d.orders), kernelRows)], dir: dir}
	p := page.New(disk.DefaultBlockSize)
	for _, r := range f.rows {
		enc := r.Encode(nil)
		f.encoded = append(f.encoded, enc)
		if !p.HasRoomFor(len(enc)) {
			f.pages = append(f.pages, p.Bytes())
			p = page.New(disk.DefaultBlockSize)
		}
		if _, err := p.Insert(enc); err != nil {
			return nil, err
		}
	}
	f.pages = append(f.pages, p.Bytes())
	f.batch = wire.AppendRowBatch(nil, f.rows[:batchRows])
	var err error
	if f.db, err = qpipe.Open(qpipe.Options{PoolPages: 4096}); err != nil {
		return nil, err
	}
	if _, err = f.db.Exec(ctx, schemaSQL); err == nil {
		if err = f.db.Load("orders", f.rows); err == nil {
			_, err = f.db.Exec(ctx, "CREATE INDEX ON orders (oid)")
		}
	}
	if err != nil {
		f.db.Close()
		return nil, err
	}
	f.sm = f.db.Engine().Runtime().SM
	f.table = f.sm.MustTable("orders")
	f.cold = buffer.NewPool(f.sm.Disk, 16, nil)
	return f, nil
}

// runKernels adds every kernel's median round to the record.
func runKernels(ctx context.Context, rec *record, d *dataset, dir string) error {
	f, err := newFixture(ctx, d, dir)
	if err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	defer f.db.Close()
	for _, k := range kernels {
		vs, extras := make([]float64, kernelRounds), make([]float64, kernelRounds)
		for i := range vs {
			vs[i], extras[i] = k.run(f)
		}
		rec.layer(k.name, median(vs), kernelRounds)
		if k.extra != "" {
			rec.layer(k.extra, median(extras), kernelRounds)
		}
	}
	if f.err != nil {
		return fmt.Errorf("kernels: %w", f.err)
	}
	return nil
}
