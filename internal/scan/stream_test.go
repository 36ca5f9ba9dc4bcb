package scan_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// healthKey reduces a SweepHealth to an order-insensitive canonical form.
func healthKey(h *scan.SweepHealth) string {
	classes := make([]string, 0, len(h.ByClass))
	for c, n := range h.ByClass {
		if n != 0 {
			classes = append(classes, fmt.Sprintf("%s=%d", c, n))
		}
	}
	sort.Strings(classes)
	fails := make([]string, 0, len(h.Failures))
	for _, f := range h.Failures {
		fails = append(fails, f.Target.Domain+"/"+f.Stage+"/"+string(f.Class))
	}
	sort.Strings(fails)
	skipped := append([]string(nil), h.SkippedUnknownTLD...)
	sort.Strings(skipped)
	return fmt.Sprintf("t=%d m=%d u=%d by[%s] fail[%s] skip[%s] retries=%d",
		h.Targets, h.Measured, h.Unregistered, strings.Join(classes, ","),
		strings.Join(fails, ","), strings.Join(skipped, ","), h.Retries)
}

// TestRunStreamChunksMatchWholeDay sweeps one shard at several chunk
// sizes, including 0 (one chunk per shard) and sizes larger than the day:
// the archive must match the whole-day oracle byte for byte, the day's
// health must equal the whole-day scan's, and the checkpoint must record
// the expected chunk geometry.
func TestRunStreamChunksMatchWholeDay(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	days := []simtime.Day{day}
	want := wholeDayArchive(t, eco, targets, days)
	_, wantHealth, err := newScanner(t, eco, 3).ScanDay(context.Background(), day, targets)
	if err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{0, 1, 2, 3, len(targets), len(targets) + 50} {
		cp, err := checkpoint.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		var h *scan.SweepHealth
		rs := &scan.ResumableSweep{
			Checkpoint: cp, Fingerprint: "chunks", Shards: 1, Chunk: chunk,
			StreamSetup: sweepSetup(t, eco, targets, nil),
			OnDayHealth: func(_ simtime.Day, dh *scan.SweepHealth) { h = dh },
		}
		if got := archiveViaStream(t, rs, days); !bytes.Equal(want, got) {
			t.Errorf("chunk=%d: streamed records differ from whole-day scan", chunk)
		}
		if !h.Balanced() {
			t.Errorf("chunk=%d: aggregate health unbalanced: %s", chunk, h)
		}
		if gk, wk := healthKey(h), healthKey(wantHealth); gk != wk {
			t.Errorf("chunk=%d: aggregate health differs\n got %s\nwant %s", chunk, gk, wk)
		}
		st, err := cp.Load()
		if err != nil {
			t.Fatal(err)
		}
		wantSize, wantChunks := len(targets), 1
		if chunk > 0 {
			wantSize, wantChunks = chunk, (len(targets)+chunk-1)/chunk
		}
		if cp := st.Day(day).Partial[0]; cp.Chunk != wantSize || cp.Chunks != wantChunks {
			t.Errorf("chunk=%d: shard cut into %d chunks of %d, want %d of %d", chunk, cp.Chunks, cp.Chunk, wantChunks, wantSize)
		}
	}
}

// TestStreamHealthMergeProperty is the ledger property test: for random
// chunk sizes (including 1 and larger than the target count), merging the
// per-chunk health reports in any order yields the same balanced
// aggregate.
func TestStreamHealthMergeProperty(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	rng := rand.New(rand.NewSource(7))

	var wantKey string
	for trial := 0; trial < 8; trial++ {
		chunk := 1 + rng.Intn(len(targets)+3)
		if trial == 0 {
			chunk = 1
		}
		if trial == 1 {
			chunk = len(targets) + 17
		}
		s := newScanner(t, eco, 3)
		var parts []*scan.SweepHealth
		for lo := 0; lo < len(targets); lo += chunk {
			_, h, err := s.ScanDay(context.Background(), day, targets[lo:min(lo+chunk, len(targets))])
			if err != nil {
				t.Fatalf("chunk=%d: %v", chunk, err)
			}
			parts = append(parts, h)
		}

		// Merge the chunk reports in a few random orders; every order must
		// produce the same balanced aggregate.
		for perm := 0; perm < 4; perm++ {
			order := rng.Perm(len(parts))
			agg := &scan.SweepHealth{Day: day}
			for _, i := range order {
				agg.Merge(parts[i])
			}
			if !agg.Balanced() {
				t.Fatalf("chunk=%d perm=%v: merged health unbalanced: %s", chunk, order, agg)
			}
			if agg.Targets != len(targets) {
				t.Fatalf("chunk=%d: merged targets %d, want %d", chunk, agg.Targets, len(targets))
			}
			key := healthKey(agg)
			if wantKey == "" {
				wantKey = key
			}
			if key != wantKey {
				t.Fatalf("chunk=%d perm=%v: aggregate differs\n got %s\nwant %s", chunk, order, key, wantKey)
			}
		}
	}
}

// TestRunStreamByteIdenticalToLegacy compares every shard/chunk/spill
// geometry strictly against the whole-day oracle (one ScanDay over all
// targets, canonicalized): no geometry may change a byte of the archive.
func TestRunStreamByteIdenticalToLegacy(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1}

	want := wholeDayArchive(t, eco, targets, days)

	for _, chunk := range []int{0, 1, 3, len(targets) + 9} {
		for _, budget := range []int64{1, 1 << 20} {
			cp, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			var healths []*scan.SweepHealth
			rs := &scan.ResumableSweep{
				Checkpoint:  cp,
				Fingerprint: fmt.Sprintf("stream chunk=%d", chunk),
				Shards:      3,
				Chunk:       chunk,
				Spill:       dataset.SpillOptions{Dir: t.TempDir(), MemBudget: budget},
				StreamSetup: sweepSetup(t, eco, targets, nil),
				OnDayHealth: func(d simtime.Day, h *scan.SweepHealth) { healths = append(healths, h) },
			}
			got := archiveViaStream(t, rs, days)
			if !bytes.Equal(want, got) {
				t.Errorf("chunk=%d budget=%d: streaming archive differs from the whole-day oracle", chunk, budget)
			}
			if len(healths) != len(days) {
				t.Fatalf("chunk=%d: %d day healths, want %d", chunk, len(healths), len(days))
			}
			for _, h := range healths {
				if !h.Balanced() || h.Targets != len(targets) {
					t.Errorf("chunk=%d: day health wrong: %s", chunk, h)
				}
			}
		}
	}
}

func TestRunStreamKillResume(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1}

	want := wholeDayArchive(t, eco, targets, days)

	// Calibrate the kill point to ~60% of one day's exchanges so several
	// chunks land before the cut.
	counter := &cancelAtExchanger{inner: eco.Net, at: -1}
	probe := &scan.ResumableSweep{Shards: 3, Chunk: 2,
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			counter.inner = ex
			return counter
		})}
	if err := probe.RunStream(context.Background(), []simtime.Day{days[0]}, nil); err != nil {
		t.Fatal(err)
	}
	killAt := counter.n.Load() * 6 / 10
	if killAt < 2 {
		killAt = 2
	}

	dir := t.TempDir()
	cp, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: killAt}
	var events []string
	interrupted := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "stream-drill",
		Shards:      3,
		Chunk:       2,
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			killer.inner = ex
			return killer
		}),
		OnEvent: func(f string, a ...any) { events = append(events, fmt.Sprintf(f, a...)) },
	}
	if err := interrupted.RunStream(ctx, days, nil); err == nil {
		t.Fatal("interrupted streaming run reported success")
	}
	if !cp.Exists() {
		t.Fatal("no checkpoint persisted by the interrupted run")
	}
	st, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	doneChunks := 0
	for _, dp := range st.Days {
		for _, cpr := range dp.Partial {
			doneChunks += len(cpr.Done)
		}
	}
	if doneChunks == 0 {
		t.Fatal("kill landed before any chunk completed; cannot exercise chunk-level resume")
	}

	resumed := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "stream-drill",
		Shards:      3,
		Chunk:       2,
		StreamSetup: sweepSetup(t, eco, targets, nil),
		OnEvent:     func(f string, a ...any) { events = append(events, fmt.Sprintf(f, a...)) },
	}
	got := archiveViaStream(t, resumed, days)
	if !bytes.Equal(want, got) {
		t.Errorf("resumed streaming archive differs from the whole-day oracle:\n--- want\n%s\n--- got\n%s", want, got)
	}
	chunkVerified := false
	for _, e := range events {
		if strings.Contains(e, "chunk") && strings.Contains(e, "verified from checkpoint") {
			chunkVerified = true
		}
	}
	if !chunkVerified {
		t.Errorf("no chunk-level verification events in %q", events)
	}

	// A full re-run verifies every chunk from checksum without scanning.
	again := archiveViaStream(t, resumed, days)
	if !bytes.Equal(want, again) {
		t.Error("checksum-verified streaming reload diverges")
	}
}

func TestRunStreamChunkGeometryGuard(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt almost immediately so the day stays incomplete but has
	// recorded chunk geometry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: 25}
	first := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "geom", Shards: 2, Chunk: 2,
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			killer.inner = ex
			return killer
		}),
	}
	if err := first.RunStream(ctx, []simtime.Day{day}, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	st, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	hasGeometry := false
	for _, dp := range st.Days {
		if len(dp.Partial) > 0 {
			hasGeometry = true
		}
	}
	if !hasGeometry {
		t.Skip("kill landed before any shard recorded chunk geometry")
	}

	// Resuming with a different chunk size must be refused.
	second := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "geom", Shards: 2, Chunk: 5,
		StreamSetup: sweepSetup(t, eco, targets, nil),
	}
	err = second.RunStream(context.Background(), []simtime.Day{day}, nil)
	if err == nil || !strings.Contains(err.Error(), "chunked as") {
		t.Errorf("chunk-size change accepted on resume: %v", err)
	}
}

func TestShardBoundsMatchShardSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(50)
		shards := rng.Intn(12) - 1
		targets := make([]scan.Target, n)
		for i := range targets {
			targets[i] = scan.Target{Domain: fmt.Sprintf("d%d.com", i), TLD: "com"}
		}
		parts := shardSplit(targets, shards)
		spans := scan.ShardBounds(n, shards)
		if len(parts) != len(spans) {
			t.Fatalf("n=%d shards=%d: %d parts vs %d spans", n, shards, len(parts), len(spans))
		}
		off := 0
		for i, p := range parts {
			if spans[i].Lo != off || spans[i].Hi != off+len(p) {
				t.Fatalf("n=%d shards=%d shard %d: span %+v, slice [%d,%d)", n, shards, i, spans[i], off, off+len(p))
			}
			off += len(p)
		}
		got := scan.CollectTargets(scan.SliceTargets(targets), 0, n, nil)
		if !reflect.DeepEqual(got, targets) && n > 0 {
			t.Fatalf("CollectTargets round trip failed at n=%d", n)
		}
	}
}

// shardSplit is the slice-shaped shard partition ShardBounds must agree
// with: n contiguous shards, the first len(targets)%n one element longer.
func shardSplit(targets []scan.Target, n int) [][]scan.Target {
	if n > len(targets) && len(targets) > 0 {
		n = len(targets)
	}
	if n <= 0 {
		n = 1
	}
	parts := make([][]scan.Target, 0, n)
	size, rem := len(targets)/n, len(targets)%n
	start := 0
	for i := 0; i < n; i++ {
		end := start + size
		if i < rem {
			end++
		}
		parts = append(parts, targets[start:end])
		start = end
	}
	return parts
}
