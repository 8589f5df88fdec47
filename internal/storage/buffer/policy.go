// The replacement policy. The paper's §2.1 surveys LRU, LRU-K, 2Q and ARC as
// the state of the art in page-level sharing; its prototype ran on
// BerkeleyDB's LRU, and so does every pool here. A policy is NOT thread-safe
// on its own; the Pool serializes all policy calls under its mutex.
package buffer

import "container/list"

// Policy decides which resident page to evict. The Pool calls:
//
//   - Insert when a page becomes resident,
//   - Touch on every subsequent hit,
//   - Evict to pick an unpinned victim (evictable reports pin status),
//   - Remove when a page leaves the pool (after eviction or invalidation).
type Policy interface {
	Insert(id PageID)
	Touch(id PageID)
	Evict(evictable func(PageID) bool) (PageID, bool)
	Remove(id PageID)
}

// LRU evicts the least-recently-used page. This is the policy BerkeleyDB
// (the paper's storage manager) effectively provides, and is what both
// "Baseline" and "QPipe w/OSP" run on in every experiment.
type LRU struct {
	ll    *list.List // front = most recent
	elems map[PageID]*list.Element
}

// NewLRU creates an LRU policy.
func NewLRU() *LRU {
	return &LRU{ll: list.New(), elems: make(map[PageID]*list.Element)}
}

// Insert implements Policy.
func (l *LRU) Insert(id PageID) {
	if e, ok := l.elems[id]; ok {
		l.ll.MoveToFront(e)
		return
	}
	l.elems[id] = l.ll.PushFront(id)
}

// Touch implements Policy.
func (l *LRU) Touch(id PageID) {
	if e, ok := l.elems[id]; ok {
		l.ll.MoveToFront(e)
	}
}

// Evict implements Policy.
func (l *LRU) Evict(evictable func(PageID) bool) (PageID, bool) {
	for e := l.ll.Back(); e != nil; e = e.Prev() {
		id := e.Value.(PageID)
		if evictable(id) {
			return id, true
		}
	}
	return PageID{}, false
}

// Remove implements Policy.
func (l *LRU) Remove(id PageID) {
	if e, ok := l.elems[id]; ok {
		l.ll.Remove(e)
		delete(l.elems, id)
	}
}
