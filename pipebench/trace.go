package main

import (
	"sort"
	"sync"
	"time"
)

// The span recorder behind the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer's public
// functions and hooks; the program itself is not instrumented. Spans stay
// in memory until the run ends. Fine-grained boundaries (one exchange, one
// packet) are not spans: they are folded into their parent span as a
// count and a busy time.

// spanID names a recorded span; 0 is "no span" (a root's parent, or any
// span when tracing is off).
type spanID int32

// span is one recorded interval.
type span struct {
	ID     spanID
	Parent spanID
	Trace  int64
	Name   string
	Layer  string
	Start  int64 // ns since the recorder's epoch
	End    int64
	Count  int64 // folded fine-grained events
	BusyNs int64 // their summed duration (may exceed End-Start when concurrent)
}

// recorder holds a run's spans. A nil *recorder records nothing, so call
// sites need no tracing-on checks.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// start opens a span under parent. trace groups the spans of one request,
// day or pass; pass 0 to inherit the parent's.
func (r *recorder) start(layer, name string, parent spanID, trace int64) spanID {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if trace == 0 && parent > 0 {
		trace = r.spans[parent-1].Trace
	}
	r.spans = append(r.spans, span{
		ID: spanID(len(r.spans) + 1), Parent: parent, Trace: trace,
		Name: name, Layer: layer, Start: t, End: -1,
	})
	return spanID(len(r.spans))
}

// end closes a span.
func (r *recorder) end(id spanID) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// fold adds count fine-grained events of total duration busy to a span.
func (r *recorder) fold(id spanID, count int64, busy time.Duration) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].Count += count
	r.spans[id-1].BusyNs += int64(busy)
	r.mu.Unlock()
}

// snapshot returns a copy of the spans, closing any still open at now.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := append([]span(nil), r.spans...)
	for i := range out {
		if out[i].End < 0 {
			out[i].End = t
		}
	}
	return out
}

// selfTimes returns, per layer, the summed self time of its spans: each
// span's duration minus the part of its interval that its children cover.
// Children may overlap each other (parallel work), so the covered part is
// the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[spanID][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		d := s.End - s.Start
		d -= covered(s.Start, s.End, children[s.ID])
		out[s.Layer] += time.Duration(d)
	}
	return out
}

// covered is the length of the union of the children's intervals within
// [lo, hi).
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curA, curB := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
			continue
		}
		if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// setSelfTimes reports each layer's self time from the spans.
func setSelfTimes(m metricSet, spans []span) {
	for layer, d := range selfTimes(spans) {
		m.set("self_s."+layer, d.Seconds())
	}
}
