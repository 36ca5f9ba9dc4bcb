package tldsim

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

func streamTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := Build(WorldConfig{Scale: 1.0 / 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSampleSourceMatchesSample(t *testing.T) {
	w := streamTestWorld(t)
	for _, n := range []int{1, 10, 500, w.Len(), w.Len() + 100} {
		src := w.SampleSource(n, 42)
		want := w.Sample(n, 42)
		if src.Len() != len(want) {
			t.Fatalf("n=%d: SampleSource.Len() = %d, Sample returned %d", n, src.Len(), len(want))
		}
		for i := range want {
			if got := src.DomainAt(i); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("n=%d: DomainAt(%d) = %+v, Sample[%d] = %+v", n, i, got, i, want[i])
			}
			d, tld := src.Target(i)
			if d != want[i].Name || tld != want[i].TLD {
				t.Fatalf("n=%d: Target(%d) = (%s, %s), want (%s, %s)", n, i, d, tld, want[i].Name, want[i].TLD)
			}
		}
	}
}

func TestWorldTargetMatchesDomainAt(t *testing.T) {
	w := streamTestWorld(t)
	for i := 0; i < w.Len(); i += 97 {
		d := w.DomainAt(i)
		name, tld := w.Target(i)
		if name != d.Name || tld != d.TLD {
			t.Fatalf("Target(%d) = (%s, %s), DomainAt = (%s, %s)", i, name, tld, d.Name, d.TLD)
		}
	}
}

func TestLossyOperatorsSourceMatchesSlice(t *testing.T) {
	w := streamTestWorld(t)
	src := w.SampleSource(400, 3)
	domains := Domains(src)
	wantRules, wantChosen := LossyOperators(domains, 0.25, 0.5, 99)
	gotRules, gotChosen := LossyOperatorsSource(src, 0.25, 0.5, 99)
	if !reflect.DeepEqual(gotChosen, wantChosen) {
		t.Fatalf("chosen operators differ:\n got %v\nwant %v", gotChosen, wantChosen)
	}
	if !reflect.DeepEqual(gotRules, wantRules) {
		t.Fatalf("rules differ:\n got %v\nwant %v", gotRules, wantRules)
	}
	if len(gotChosen) == 0 {
		t.Fatal("fault selection picked no operators; test world too small")
	}
}

// TestStreamMaterializerChunkAnswers verifies that a chunked
// materialization answers queries about its chunk's domains with the same
// DNSSEC-relevant shape the whole-day materialization produces: same
// rcode, same answer types per (name, qtype). Full record-level identity
// is impossible (each materialization generates fresh keys), but the
// measurement outcome per domain — which is what the scanner records —
// depends only on the answer shape.
//
// Chunks arrive contiguously (every call after the first is served by the
// prefetch), permuted and repeated (prefetches are dropped), and in
// shard-sized runs whose tails are shorter than the chunk (the prefetch
// misses at each tail and hits again at the next shard).
func TestStreamMaterializerChunkAnswers(t *testing.T) {
	w := streamTestWorld(t)
	src := w.SampleSource(64, 5)
	day := simtime.End

	whole, err := Materialize(day, Domains(src))
	if err != nil {
		t.Fatal(err)
	}
	probe := NewStreamMaterializer(day, src)
	if len(probe.TLDServers) == 0 {
		t.Fatal("StreamMaterializer derived no TLD servers")
	}
	for tld, ns := range whole.TLDServers {
		if probe.TLDServers[tld] != ns {
			t.Fatalf("TLD %s: stream server %q, whole-day %q", tld, probe.TLDServers[tld], ns)
		}
	}
	ctx := context.Background()
	if _, err := probe.Exchange(ctx, "a.root-servers.net", dnswire.NewQuery(1, "com", dnswire.TypeNS)); err == nil {
		t.Fatal("Exchange before Prepare should error")
	}

	const chunk = 17
	contiguous := chunkSpans(0, src.Len(), chunk)
	permuted := append([]scan.Span(nil), contiguous...)
	rand.New(rand.NewSource(1)).Shuffle(len(permuted), func(i, j int) {
		permuted[i], permuted[j] = permuted[j], permuted[i]
	})
	repeated := []scan.Span{contiguous[1], contiguous[1], contiguous[0], contiguous[0], contiguous[1], contiguous[2]}
	var tails []scan.Span
	for _, shard := range scan.ShardBounds(src.Len(), 3) {
		tails = append(tails, chunkSpans(shard.Lo, shard.Hi, chunk)...)
	}
	for _, tc := range []struct {
		name  string
		spans []scan.Span
	}{
		{"contiguous", contiguous},
		{"permuted", permuted},
		{"repeated", repeated},
		{"shard tails", tails},
	} {
		sm := NewStreamMaterializer(day, src)
		for _, sp := range tc.spans {
			if err := sm.Prepare(ctx, sp.Lo, sp.Hi); err != nil {
				t.Fatal(err)
			}
			for i := sp.Lo; i < sp.Hi; i++ {
				d := src.DomainAt(i)
				for _, q := range domainQueries(d) {
					got, err := sm.Exchange(ctx, q.server, dnswire.NewQuery(1, d.Name, q.qtype))
					if err != nil {
						t.Fatalf("%s: chunk query %s %d: %v", tc.name, d.Name, q.qtype, err)
					}
					want, err := whole.Net.Exchange(ctx, q.server, dnswire.NewQuery(1, d.Name, q.qtype))
					if err != nil {
						t.Fatalf("%s: whole-day query %s %d: %v", tc.name, d.Name, q.qtype, err)
					}
					if got.RCode != want.RCode {
						t.Fatalf("%s: %s qtype %d: chunk rcode %d, whole-day %d", tc.name, d.Name, q.qtype, got.RCode, want.RCode)
					}
					if gc, wc := typeCounts(got), typeCounts(want); !reflect.DeepEqual(gc, wc) {
						t.Fatalf("%s: %s qtype %d: chunk answer types %v, whole-day %v", tc.name, d.Name, q.qtype, gc, wc)
					}
				}
			}
		}
	}
}

// TestStreamMaterializerPrefetch pins the prefetch rule: after the first
// call, equal contiguous chunks are always served by the speculative
// build, and a build for any other span is dropped — cancelled, and never
// served in place of the span asked for.
func TestStreamMaterializerPrefetch(t *testing.T) {
	w := streamTestWorld(t)
	src := w.SampleSource(64, 5)
	day := simtime.End
	ctx := context.Background()
	whole, err := Materialize(day, Domains(src))
	if err != nil {
		t.Fatal(err)
	}

	sm := NewStreamMaterializer(day, src)
	if hits := prepareHits(t, sm, chunkSpans(0, src.Len(), 16)); !reflect.DeepEqual(hits, []bool{false, true, true, true}) {
		t.Fatalf("contiguous chunks: prefetch served %v, want every call after the first", hits)
	}
	if sm.next != nil {
		t.Fatalf("speculative build of [%d,%d) started past the end of the cursor", sm.next.lo, sm.next.hi)
	}

	// A shard tail shorter than the chunk misses; the next full chunk,
	// guessed at the largest span seen, hits again.
	sm = NewStreamMaterializer(day, src)
	tail := []scan.Span{{Lo: 0, Hi: 16}, {Lo: 16, Hi: 32}, {Lo: 32, Hi: 40}, {Lo: 40, Hi: 56}}
	if hits := prepareHits(t, sm, tail); !reflect.DeepEqual(hits, []bool{false, true, false, true}) {
		t.Fatalf("shard tail: prefetch served %v, want all but the first call and the tail", hits)
	}

	// Jumping ahead drops the speculative build of [16,32): its goroutine
	// is cancelled and exits, and the network installed serves [32,48)
	// only.
	sm = NewStreamMaterializer(day, src)
	jump := []scan.Span{{Lo: 0, Hi: 16}, {Lo: 32, Hi: 48}}
	if hits := prepareHits(t, sm, jump); !reflect.DeepEqual(hits, []bool{false, false}) {
		t.Fatalf("jump: prefetch served %v, want nothing", hits)
	}
	served := 0
	for i := 16; i < 48; i++ {
		d := src.DomainAt(i)
		ns := sm.TLDServers[d.TLD]
		want, err := whole.Net.Exchange(ctx, ns, dnswire.NewQuery(1, d.Name, dnswire.TypeNS))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sm.Exchange(ctx, ns, dnswire.NewQuery(1, d.Name, dnswire.TypeNS))
		inChunk := i >= 32
		if inChunk != (err == nil && got.RCode == want.RCode && reflect.DeepEqual(typeCounts(got), typeCounts(want))) {
			t.Fatalf("domain %d (%s): in current chunk %v, but answer %v (err %v) vs whole-day %v",
				i, d.Name, inChunk, got, err, want)
		}
		if inChunk {
			served++
		}
	}
	if served != 16 {
		t.Fatalf("served %d domains of [32,48), want 16", served)
	}
}

// TestRunStreamCancelStopsPrefetch cancels a streaming sweep mid-day and
// checks that the speculative build in flight is cancelled with it: no
// goroutine the materializer started outlives the sweep's return by more
// than that build's wind-down.
func TestRunStreamCancelStopsPrefetch(t *testing.T) {
	w := streamTestWorld(t)
	src := w.SampleSource(200, 9)
	day := simtime.End
	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var sm *StreamMaterializer
	prepared := 0
	rs := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "prefetch-cancel",
		Shards:      2,
		Chunk:       50,
		Spill:       dataset.SpillOptions{Dir: t.TempDir()},
		StreamSetup: func(ctx context.Context, d simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
			sm = NewStreamMaterializer(d, src)
			scanner, err := scan.New(scan.Config{Exchange: sm, TLDServers: sm.TLDServers, Workers: 2})
			if err != nil {
				return nil, nil, nil, err
			}
			prepare := func(ctx context.Context, lo, hi int) error {
				if err := sm.Prepare(ctx, lo, hi); err != nil {
					return err
				}
				if prepared++; prepared == 1 {
					cancel()
				}
				return nil
			}
			return scanner, src, prepare, nil
		},
	}
	if err := rs.RunStream(ctx, []simtime.Day{day}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStream after cancel: %v, want context.Canceled", err)
	}
	if sm.next == nil {
		t.Fatal("no speculative build was in flight at the cancellation")
	}
	select {
	case <-sm.next.done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight speculative build ignored the cancellation")
	}
	if sm.next.net != nil {
		t.Fatal("in-flight build ran to completion despite the cancellation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the sweep, %d after it:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// prepareHits prepares each span in turn and reports, per call, whether
// it installed the speculative build the previous call started. A build
// that was not installed is waited for, so no build is left running.
func prepareHits(t *testing.T, sm *StreamMaterializer, spans []scan.Span) []bool {
	t.Helper()
	hits := make([]bool, len(spans))
	for k, sp := range spans {
		p := sm.next
		if err := sm.Prepare(context.Background(), sp.Lo, sp.Hi); err != nil {
			t.Fatal(err)
		}
		if p == nil {
			continue
		}
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			t.Fatalf("speculative build of [%d,%d) never finished", p.lo, p.hi)
		}
		hits[k] = p.net != nil && sm.cur.Load() == p.net
	}
	return hits
}

// chunkSpans cuts [lo, hi) into chunk-sized spans, the last one short.
func chunkSpans(lo, hi, chunk int) []scan.Span {
	var out []scan.Span
	for ; lo < hi; lo += chunk {
		out = append(out, scan.Span{Lo: lo, Hi: min(lo+chunk, hi)})
	}
	return out
}

type domainQuery struct {
	server string
	qtype  dnswire.Type
}

// domainQueries lists the questions the scanner asks about d: DS and NS
// at its TLD's registry server, DNSKEY at its operator.
func domainQueries(d DomainState) []domainQuery {
	tldNS := tldServerName(d.TLD)
	return []domainQuery{
		{tldNS, dnswire.TypeDS},
		{tldNS, dnswire.TypeNS},
		{nsFor(d.Operator), dnswire.TypeDNSKEY},
	}
}

// typeCounts tallies answer-section record types — the shape the scanner's
// presence checks (has DS? has DNSKEY? has RRSIG?) depend on.
func typeCounts(m *dnswire.Message) map[dnswire.Type]int {
	out := map[dnswire.Type]int{}
	for _, rr := range m.Answers {
		out[rr.Type]++
	}
	return out
}

// Domains materializes a whole cursor as a slice, for the slice-shaped
// oracles.
func Domains(src DomainSource) []DomainState {
	out := make([]DomainState, 0, src.Len())
	for i := 0; i < src.Len(); i++ {
		out = append(out, src.DomainAt(i))
	}
	return out
}
