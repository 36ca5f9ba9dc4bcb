package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // p50 rank 10 leaves 9 beyond
		{20, 50},   // p50 rank 10 leaves 10 beyond
		{99, 50},   // p90 rank 90 leaves 9 beyond
		{100, 90},  // p90 rank 90 leaves 10 beyond
		{999, 90},  // p99 rank 990 leaves 9 beyond
		{1000, 99}, // p99 rank 990 leaves 10 beyond
		{100000, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsSupportedTail(t *testing.T) {
	l := &latencies{}
	for i := 1; i <= 1000; i++ {
		l.add(time.Duration(i) * time.Microsecond)
	}
	s := l.summarize(time.Microsecond)
	if s.N != 1000 || s.TailP != 99 || s.Tail != 990 || s.P50 != 500 {
		t.Fatalf("summary = %+v, want n=1000 p50=500 p99=990", s)
	}
	l.v = l.v[:999]
	if s := l.summarize(time.Microsecond); s.TailP != 90 || s.Tail != 900 {
		t.Fatalf("999 samples: summary = %+v, want the p90 (900)", s)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %g", m)
	}
	xs := []float64{4, 1, 3, 2}
	if m := median(xs); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
}

func TestCPUPerMillionDomainDays(t *testing.T) {
	// 2.5 CPU-seconds over 50,000 domain-days is 50 CPU-seconds per
	// million domain-days, which is also 50 CPU-µs per domain-day.
	if got := cpuPerMillion(2.5, 50000); math.Abs(got-50) > 1e-9 {
		t.Errorf("cpuPerMillion(2.5, 50000) = %g, want 50", got)
	}
	perDomainDayUs := 2.5 / 50000 * 1e6
	if got := cpuPerMillion(2.5, 50000); math.Abs(got-perDomainDayUs) > 1e-9 {
		t.Errorf("CPU-s per Mdd %g != CPU-µs per domain-day %g", got, perDomainDayUs)
	}
	if got := cpuPerMillion(1, 0); got != 0 {
		t.Errorf("no work: got %g, want 0", got)
	}
}

// The closed-loop capacity is the median per-slice rate of successful
// reads, by completion time; a stalled slice does not pull it down.
func TestCapacitySliceMedian(t *testing.T) {
	start := time.Unix(0, 0)
	w := &obsWindow{start: start, end: start.Add(3 * time.Second)}
	add := func(n int, at time.Duration, ok bool) {
		for i := 0; i < n; i++ {
			w.reads = append(w.reads, readResult{due: start.Add(at), lat: time.Millisecond, ok: ok})
		}
	}
	add(100, 0, true)             // slice 0: 100 reads
	add(10, time.Second, true)    // slice 1: stalled
	add(120, 2*time.Second, true) // slice 2: 120 reads
	add(50, 2*time.Second, false) // failures do not count
	add(30, 3*time.Second, true)  // past the window
	if got := w.capacity(time.Second); got != 100 {
		t.Fatalf("capacity = %v reads/s, want 100", got)
	}
}

// The observatory's p50 weights every route equally: the mean of each
// route's own median, not the median of the pooled reads.
func TestRouteP50(t *testing.T) {
	s := readStats{byRoute: []*latencies{{}, {}}}
	for _, us := range []int{90, 100, 110} {
		s.byRoute[0].add(time.Duration(us) * time.Microsecond)
	}
	for _, us := range []int{280, 300, 320, 340, 360} {
		s.byRoute[1].add(time.Duration(us) * time.Microsecond)
	}
	mean, each := s.routeP50()
	if mean != 210 || len(each) != 2 || each[0] != 100 || each[1] != 320 {
		t.Fatalf("routeP50 = %v %v, want 210 [100 320]", mean, each)
	}
}
