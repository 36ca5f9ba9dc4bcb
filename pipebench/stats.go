package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one outlier's reading, not a tail.
const minBeyond = 10

// tailCandidates are the percentiles a tail figure may report, highest
// first. The benchmark reports the highest one the sample count supports.
var tailCandidates = []float64{99, 90, 50}

// rankOf is the 1-based nearest-rank position of percentile p among n
// sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile returns the highest candidate percentile with at least
// minBeyond samples above its rank, or 0 when n supports none of them.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		if n > 0 && n-rankOf(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank percentile p of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// percentileOf sorts xs in place and returns its percentile p.
func percentileOf(xs []float64, p float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, p)
}

// median returns the middle of xs (the mean of the two middle values for
// an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencies collects one timing series.
type latencies struct{ v []float64 }

func (l *latencies) add(d time.Duration) { l.v = append(l.v, float64(d.Nanoseconds())) }
func (l *latencies) addAll(o *latencies) { l.v = append(l.v, o.v...) }
func (l *latencies) n() int              { return len(l.v) }

// summary is a timing series reduced to what the benchmark reports: the
// median, the highest percentile the count supports, and the count.
type summary struct {
	N     int     `json:"n"`
	P50   float64 `json:"p50"`
	TailP float64 `json:"tail_percentile"`
	Tail  float64 `json:"tail"`
}

// summarize reduces the series, scaling nanoseconds by unit (e.g.
// time.Microsecond to report µs).
func (l *latencies) summarize(unit time.Duration) summary {
	s := append([]float64(nil), l.v...)
	sort.Float64s(s)
	out := summary{N: len(s), TailP: tailPercentile(len(s))}
	if len(s) == 0 {
		return out
	}
	scale := float64(unit.Nanoseconds())
	out.P50 = percentile(s, 50) / scale
	if out.TailP > 0 {
		out.Tail = percentile(s, out.TailP) / scale
	} else {
		out.Tail = s[len(s)-1] / scale
	}
	return out
}

// cpuPerMillion converts CPU-seconds spent on n units of work into
// CPU-seconds per million units — ROADMAP's headline cost unit when the
// units are domain-days. Numerically it is also CPU-µs per unit.
func cpuPerMillion(cpuSeconds float64, n int64) float64 {
	if n <= 0 {
		return 0
	}
	return cpuSeconds / (float64(n) / 1e6)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
