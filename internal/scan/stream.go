package scan

import "context"

// The streaming scan pipeline: at full-`.com` scale neither the target
// list nor a day's snapshot fits in RAM, so the sweep walks a random-access
// target cursor in fixed-size chunks, materializes each chunk's DNS lazily,
// scans it with the ordinary engine, and flushes the chunk's canonicalized
// records before touching the next chunk. Because every per-target outcome
// is a pure function of the zone data and the fault schedule (see the
// package determinism contract, and faultnet's per-question fault hashing),
// the sorted union of chunk results is record-identical to one whole-day
// ScanDay over the same targets — which is what makes that whole-day scan
// usable as the equivalence oracle in tests.

// TargetSource is a random-access cursor over a day's scan targets. It is
// the streaming replacement for []Target: implementations index straight
// into a backing store (an mmap'd colstore.Index, a tldsim world, a slice)
// so the full target list is never materialized. Target returns bare
// strings rather than a Target struct so backing stores can implement the
// interface without importing this package.
type TargetSource interface {
	// Len is the number of targets.
	Len() int
	// Target returns target i's domain name and TLD.
	Target(i int) (domain, tld string)
}

// sliceTargets adapts a materialized []Target to the cursor interface.
type sliceTargets []Target

func (s sliceTargets) Len() int { return len(s) }
func (s sliceTargets) Target(i int) (string, string) {
	return s[i].Domain, s[i].TLD
}

// SliceTargets wraps an in-memory target list as a TargetSource — the
// bridge for small sweeps and tests.
func SliceTargets(ts []Target) TargetSource { return sliceTargets(ts) }

// CollectTargets materializes a cursor's span [lo, hi) into dst (reused if
// it has capacity). Intended for chunk-sized spans only.
func CollectTargets(src TargetSource, lo, hi int, dst []Target) []Target {
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		d, tld := src.Target(i)
		dst = append(dst, Target{Domain: d, TLD: tld})
	}
	return dst
}

// ChunkPrepare readies the scanning environment for the cursor span
// [lo, hi) before it is scanned — the hook where a simulated world
// materializes just that chunk's signed DNS, bounding zone memory and
// signing cost by the chunk size instead of the day.
type ChunkPrepare func(ctx context.Context, lo, hi int) error

// Span is a half-open index range [Lo, Hi) over a TargetSource.
type Span struct{ Lo, Hi int }

// Len returns the span's target count.
func (s Span) Len() int { return s.Hi - s.Lo }

// ShardBounds partitions n cursor positions into contiguous shard spans
// (the first n%shards spans get one extra position). The split is a pure
// function of n and the shard count, so an interrupted run, its resume,
// and every worker of a distributed sweep agree on every shard boundary.
func ShardBounds(n, shards int) []Span {
	if shards > n && n > 0 {
		shards = n
	}
	if shards <= 0 {
		shards = 1
	}
	out := make([]Span, 0, shards)
	size, rem := n/shards, n%shards
	start := 0
	for i := 0; i < shards; i++ {
		end := start + size
		if i < rem {
			end++
		}
		out = append(out, Span{Lo: start, Hi: end})
		start = end
	}
	return out
}
