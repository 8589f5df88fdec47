// Package tbuf is the analysistest stand-in for qpipe/internal/core/tbuf:
// same type and method names, no behavior.
package tbuf

import "tuple"

// Batch mirrors the engine's batch of rows.
type Batch = []tuple.Tuple

// Buffer mirrors the bounded producer/consumer queue.
type Buffer struct{}

func (b *Buffer) Get() (Batch, error) { return nil, nil }
