package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Spans of one operation share Op; Parent is 0 for an
// operation's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the duration minus the time covered by child spans,
	// filled in by snapshot.
	SelfNS int64 `json:"self_ns"`
	// AllocBytes is the heap allocated process-wide while the span was
	// open: exact for the serial drives, an upper bound where other
	// goroutines allocate at the same time.
	AllocBytes int64 `json:"alloc_bytes"`
	allocAt    uint64
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// recorder keeps spans in memory for the length of a run. Safe for
// concurrent use.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id.
func (r *recorder) start(name string, parent, op int) int {
	alloc, _ := heapCounters()
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: now, EndNS: -1, allocAt: alloc})
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch).Nanoseconds()
	alloc, _ := heapCounters()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.EndNS = now
	s.AllocBytes = int64(alloc - s.allocAt)
	r.mu.Unlock()
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, parent, op int, fn func(id int)) {
	id := r.start(name, parent, op)
	fn(id)
	r.end(id)
}

// snapshot returns the closed spans with their self times.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.EndNS >= 0 {
			out = append(out, s)
		}
	}
	r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range out {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range out {
		out[i].SelfNS = out[i].durNS() - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's, so overlapping children are not counted
// twice.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// allocPerOp sums the heap bytes allocated inside spans with the given
// name per operation and returns the median across operations, in MB.
func allocPerOp(spans []span, name string) float64 {
	return perOp(spans, name, func(s span) float64 { return float64(s.AllocBytes) / 1e6 })
}

// selfPerOp sums the self time of the spans with the given name per
// operation and returns the median across operations, in seconds.
// Operations without such a span count as 0.
func selfPerOp(spans []span, name string) float64 {
	return perOp(spans, name, func(s span) float64 { return float64(s.SelfNS) / 1e9 })
}

func perOp(spans []span, name string, val func(span) float64) float64 {
	byOp := map[int]float64{}
	for _, s := range spans {
		if s.Parent == 0 {
			byOp[s.Op] += 0
		}
		if s.Name == name {
			byOp[s.Op] += val(s)
		}
	}
	xs := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		xs = append(xs, v)
	}
	return median(xs)
}
