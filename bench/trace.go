package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Spans are recorded by the benchmark around its own calls into the
// layers; spans inside the engine are a later change. One operation's
// spans share its op id; a span names its parent by index.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Class  string `json:"class"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the op span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps one connection's spans in memory. A nil tracer records
// nothing, which is the untraced path.
type tracer struct {
	epoch time.Time
	spans []span
	op    int64
	class string
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Class: t.class, ID: len(t.spans),
		Parent: parent, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover (children may overlap each other and may stick out of
// the parent; only the covered part of the parent counts).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

// tracedOp is one operation's spans: its class and each span's duration.
type tracedOp struct {
	class string
	durs  map[string]time.Duration
}

func groupOps(spans []span) []*tracedOp {
	byID := make(map[int64]*tracedOp)
	var ops []*tracedOp
	for _, s := range spans {
		o := byID[s.Op]
		if o == nil {
			o = &tracedOp{class: s.Class, durs: make(map[string]time.Duration)}
			byID[s.Op] = o
			ops = append(ops, o)
		}
		o.durs[s.Name] = s.dur()
	}
	return ops
}

// classMedians derives a value per operation with f (false: the operation
// has none) and returns each statement class's median of it.
func classMedians(ops []*tracedOp, f func(durs map[string]time.Duration) (float64, bool)) []float64 {
	byClass := make(map[string][]float64)
	for _, o := range ops {
		if v, ok := f(o.durs); ok {
			byClass[o.class] = append(byClass[o.class], v)
		}
	}
	out := make([]float64, 0, len(byClass))
	for _, xs := range byClass {
		out = append(out, median(xs))
	}
	return out
}

// ladderStage is the geometric mean, over the classes that have the span,
// of the class median of its duration in the given unit (ns per unit).
func ladderStage(ops []*tracedOp, name string, unit float64) float64 {
	return geomean(classMedians(ops, func(durs map[string]time.Duration) (float64, bool) {
		d, ok := durs[name]
		return max(float64(d), 1) / unit, ok
	}))
}

func writeTrace(path, workload string, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, int64(self[i])}
	}
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []out  `json:"spans"`
	}{workload, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
