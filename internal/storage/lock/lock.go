// Package lock implements the table-level shared/exclusive lock manager the
// update path relies on (paper §4.3.4: update packets are routed to a
// dedicated µEngine with no OSP; "if a table is locked for writing, the scan
// packet will simply wait — and with it, all satellite ones — until the lock
// is released"). QPipe delegates locking to the storage manager exactly as
// the prototype delegated it to BerkeleyDB.
package lock

import (
	"context"
	"fmt"
	"sync"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits a single writer.
	Exclusive
)

func (m Mode) String() string {
	if m == Exclusive {
		return "X"
	}
	return "S"
}

type tableLock struct {
	mu       sync.Mutex
	cond     *sync.Cond
	readers  int
	writer   bool
	waitersX int // writers queued; blocks new readers (no writer starvation)
}

// Manager hands out table-level S/X locks. Locks are not reentrant and have
// no owner tracking — callers (the update µEngine and the scan path) pair
// Lock/Unlock themselves, which is all the experiments need.
type Manager struct {
	mu     sync.Mutex
	tables map[string]*tableLock
}

// NewManager creates an empty lock manager.
func NewManager() *Manager { return &Manager{tables: make(map[string]*tableLock)} }

func (m *Manager) table(name string) *tableLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	tl, ok := m.tables[name]
	if !ok {
		tl = &tableLock{}
		tl.cond = sync.NewCond(&tl.mu)
		m.tables[name] = tl
	}
	return tl
}

// Lock acquires the table in the given mode, blocking until granted or ctx
// is done. Only a request that must wait registers a wake-up for ctx's end.
func (m *Manager) Lock(ctx context.Context, table string, mode Mode) error {
	tl := m.table(table)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if mode == Exclusive {
		tl.waitersX++
	}
	if !tl.free(mode) {
		// Registered under tl.mu, which the wake-up takes before it
		// broadcasts: a context that ends after a check below still wakes
		// the Wait that follows the check.
		stop := context.AfterFunc(ctx, func() {
			tl.mu.Lock()
			tl.cond.Broadcast()
			tl.mu.Unlock()
		})
		defer stop()
		for !tl.free(mode) {
			if err := ctx.Err(); err != nil {
				if mode == Exclusive {
					tl.waitersX--
				}
				return err
			}
			tl.cond.Wait()
		}
	}
	if mode == Exclusive {
		tl.waitersX--
		tl.writer = true
	} else {
		tl.readers++
	}
	return nil
}

// free reports whether mode can be granted now: X needs no holder at all, S
// no writer holding or queued.
func (tl *tableLock) free(mode Mode) bool {
	if mode == Exclusive {
		return !tl.writer && tl.readers == 0
	}
	return !tl.writer && tl.waitersX == 0
}

// TryLock acquires the lock without blocking, reporting success.
func (m *Manager) TryLock(table string, mode Mode) bool {
	tl := m.table(table)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if !tl.free(mode) {
		return false
	}
	if mode == Exclusive {
		tl.writer = true
	} else {
		tl.readers++
	}
	return true
}

// Unlock releases a lock previously granted in the given mode.
func (m *Manager) Unlock(table string, mode Mode) {
	tl := m.table(table)
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if mode == Exclusive {
		if !tl.writer {
			panic(fmt.Sprintf("lock: X-unlock of %q not held", table))
		}
		tl.writer = false
	} else {
		if tl.readers <= 0 {
			panic(fmt.Sprintf("lock: S-unlock of %q not held", table))
		}
		tl.readers--
	}
	tl.cond.Broadcast()
}
