// Package tbuf is the analysistest stand-in for qpipe/internal/core/tbuf:
// same type and method names, no behavior.
package tbuf

import "tuple"

// Batch mirrors the engine's leased batch array.
type Batch = []tuple.Tuple

// BatchPool mirrors the runtime batch pool.
type BatchPool struct{ size int }

func (p *BatchPool) Get() Batch         { return nil }
func (p *BatchPool) GetCap(n int) Batch { return make(Batch, 0, n) }
func (p *BatchPool) Put(b Batch)        {}

// Buffer mirrors the bounded producer/consumer queue.
type Buffer struct{ pool *BatchPool }

func (b *Buffer) Get() (Batch, error)   { return nil, nil }
func (b *Buffer) Put(batch Batch) error { return nil }
func (b *Buffer) Recycle(batch Batch)   {}

// SharedOut mirrors the fan-out output port.
type SharedOut struct{ pool *BatchPool }

func (s *SharedOut) NewBatch(n int) Batch  { return make(Batch, 0, n) }
func (s *SharedOut) Put(batch Batch) error { return nil }
