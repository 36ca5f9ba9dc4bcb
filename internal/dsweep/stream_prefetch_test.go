package dsweep

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// prepareLog records, per worker, every span its chunk prepare hook was
// asked for, grouped by day set-up (each set-up is a fresh materializer).
type prepareLog struct {
	mu       sync.Mutex
	sessions map[string][][]scan.Span
}

// wrap returns setup with its prepare hook recording into worker's log.
func (pl *prepareLog) wrap(worker string, setup scan.StreamDaySetup) scan.StreamDaySetup {
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		scanner, src, prepare, err := setup(ctx, day)
		if err != nil {
			return nil, nil, nil, err
		}
		pl.mu.Lock()
		pl.sessions[worker] = append(pl.sessions[worker], nil)
		session := len(pl.sessions[worker]) - 1
		pl.mu.Unlock()
		return scanner, src, func(ctx context.Context, lo, hi int) error {
			pl.mu.Lock()
			pl.sessions[worker][session] = append(pl.sessions[worker][session], scan.Span{Lo: lo, Hi: hi})
			pl.mu.Unlock()
			return prepare(ctx, lo, hi)
		}, nil
	}
}

// dropTally is leaseDrops' accounting of one worker's dropped builds.
type dropTally struct {
	leases int
	// atLease counts builds dropped by a lease's first chunk (at most one
	// per lease), atTail those dropped by a shard's short last chunk.
	atLease, atTail int
	// misplaced lists any other drop: a mid-shard chunk the guess missed.
	misplaced []string
}

// leaseDrops replays tldsim.StreamMaterializer's prefetch rule over one
// worker's prepare sessions — after preparing [lo, hi) it builds
// [hi, min(hi+largest span seen, n)) speculatively, and any other next
// span drops that build — and attributes each dropped build to the lease
// (one shard of one day set-up) whose chunk dropped it.
func leaseDrops(sessions [][]scan.Span, bounds []scan.Span, n int) dropTally {
	var tally dropTally
	shardOf := func(sp scan.Span) int {
		for k, b := range bounds {
			if sp.Lo >= b.Lo && sp.Lo < b.Hi {
				return k
			}
		}
		return -1
	}
	for _, spans := range sessions {
		var guess *scan.Span
		maxSpan, shard := 0, -1
		for _, sp := range spans {
			first := false
			if k := shardOf(sp); k != shard {
				shard, first = k, true
				tally.leases++
			}
			if guess != nil && *guess != sp {
				switch {
				case first:
					tally.atLease++
				case sp.Hi == bounds[shard].Hi && sp.Len() < maxSpan:
					tally.atTail++
				default:
					tally.misplaced = append(tally.misplaced, fmt.Sprintf("%v after guessing %v", sp, *guess))
				}
			}
			maxSpan = max(maxSpan, sp.Len())
			guess = nil
			if next := min(sp.Hi+maxSpan, n); next > sp.Hi {
				guess = &scan.Span{Lo: sp.Hi, Hi: next}
			}
		}
	}
	return tally
}

// TestRunLocalChunkedPrefetchDrops measures what chunk prefetching costs a
// worker whose next lease is not contiguous with its last: at most one
// dropped speculative build per lease, at the lease's first chunk, on top
// of the short-tail miss any chunked walk of a shard pays. Mid-shard chunks
// always hit. A single worker leases shards in plan order and drops no
// build at a lease boundary; the merged archive of three interleaved
// workers must be byte-identical to its archive.
func TestRunLocalChunkedPrefetchDrops(t *testing.T) {
	world, err := tldsim.Build(tldsim.WorldConfig{Scale: 1.0 / 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	days := []simtime.Day{simtime.Date(2016, 6, 1), simtime.End}
	for _, tc := range []struct {
		name                  string
		sample, shards, chunk int
		tails                 int // shards per day whose last chunk is short
	}{
		{"whole chunks", 96, 6, 8, 0},
		{"shard tails", 100, 6, 8, 4},
	} {
		spec := WorldSpec{ScaleDiv: 20000, Seed: 7, Sample: tc.sample, Workers: 4, Chunk: tc.chunk}
		plan := spec.PlanFor(days, tc.shards)
		bounds := scan.ShardBounds(tc.sample, tc.shards)

		run := func(workers ...string) ([]byte, *prepareLog) {
			pl := &prepareLog{sessions: map[string][][]scan.Span{}}
			var specs []WorkerSpec
			for _, name := range workers {
				setup, err := spec.BuildStreamWith(world, nil, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				specs = append(specs, WorkerSpec{Name: name, StreamSetup: pl.wrap(name, setup)})
			}
			st, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			store, _, err := RunLocal(context.Background(), LocalConfig{
				Plan: plan, Store: st, LeaseTTL: 10 * time.Second, Workers: specs,
			})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := store.WriteArchive(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes(), pl
		}

		want, solo := run("solo")
		tally := leaseDrops(solo.sessions["solo"], bounds, tc.sample)
		if tally.leases != len(days)*tc.shards || tally.atLease != 0 ||
			tally.atTail != len(days)*tc.tails || len(tally.misplaced) != 0 {
			t.Errorf("%s: single worker: %+v, want %d leases, no drop at a lease boundary, %d at shard tails",
				tc.name, tally, len(days)*tc.shards, len(days)*tc.tails)
		}

		got, pool := run("w1", "w2", "w3")
		if !bytes.Equal(want, got) {
			t.Errorf("%s: three interleaved workers' archive differs from a single worker's", tc.name)
		}
		leases := 0
		for _, name := range []string{"w1", "w2", "w3"} {
			tally := leaseDrops(pool.sessions[name], bounds, tc.sample)
			leases += tally.leases
			if tally.atLease > tally.leases || len(tally.misplaced) != 0 {
				t.Errorf("%s: worker %s: %+v, want at most one drop per lease and none mid-shard", tc.name, name, tally)
			}
			t.Logf("%s: worker %s: %d leases, %d builds dropped at a lease boundary, %d at shard tails",
				tc.name, name, tally.leases, tally.atLease, tally.atTail)
		}
		if leases != len(days)*tc.shards {
			t.Errorf("%s: workers ran %d leases, want %d", tc.name, leases, len(days)*tc.shards)
		}
	}
}
