package tldsim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/simtime"
)

// The streaming materialization layer: at full-population scale a day's
// signed DNS does not fit in RAM any more than its target list does, so
// sweeps materialize one chunk of the cursor at a time. Determinism makes
// this safe — every domain's zone content is a pure function of its
// DomainState and the day, and TLD/root server names are fixed by
// tldServerName — so a chunked materialization answers every query about
// its chunk's domains exactly as the whole-day materialization would.

// DomainSource is a random-access cursor over a domain population. It
// deliberately includes Target so any DomainSource structurally satisfies
// scan.TargetSource without importing the scan package.
type DomainSource interface {
	// Len is the population size.
	Len() int
	// DomainAt projects domain i as a DomainState (a copy).
	DomainAt(i int) DomainState
	// Target returns domain i's name and TLD without a full projection.
	Target(i int) (domain, tld string)
}

// Target returns domain i's name and TLD — the cheap cursor accessor that
// skips the full DomainState gather on streaming worlds.
func (w *World) Target(i int) (domain, tld string) {
	if w.Domains != nil {
		d := &w.Domains[i]
		return d.Name, d.TLD
	}
	return w.Index().Target(i)
}

// TLDs lists the distinct TLDs present in the population, in index-interning
// order.
func (w *World) TLDs() []string { return w.Index().TLDs() }

var _ DomainSource = (*World)(nil)

// sampleSource is a seeded subset view over a world: position i maps to
// world position idx[i]. It keeps only the index permutation in memory —
// the draw itself is never materialized.
type sampleSource struct {
	w   *World
	idx []int
}

func (s *sampleSource) Len() int                   { return len(s.idx) }
func (s *sampleSource) DomainAt(i int) DomainState { return s.w.DomainAt(s.idx[i]) }
func (s *sampleSource) Target(i int) (string, string) {
	return s.w.Target(s.idx[i])
}

// TLDs delegates to the backing world. The sample may touch fewer TLDs
// than the world; the superset is harmless — consumers use it to size
// per-TLD server tables, and extra entries simply go unqueried.
func (s *sampleSource) TLDs() []string { return s.w.TLDs() }

// SampleSource returns a cursor over n deterministically (seeded) sampled
// domains. It draws the identical permutation Sample draws — same seed,
// same domains in the same order — but holds only []int for the draw, so
// a full-population sweep costs index space, not DomainState space.
func (w *World) SampleSource(n int, seed int64) DomainSource {
	if n >= w.Len() {
		return w
	}
	rng := rand.New(rand.NewSource(seed))
	// Clone the drawn prefix: slicing Perm's result would retain the full
	// world-sized backing array for the life of the cursor.
	idx := append([]int(nil), rng.Perm(w.Len())[:n]...)
	return &sampleSource{w: w, idx: idx}
}

// CollectDomains materializes the cursor span [lo, hi) into dst (reused if
// it has capacity). Intended for chunk-sized spans only.
func CollectDomains(src DomainSource, lo, hi int, dst []DomainState) []DomainState {
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		dst = append(dst, src.DomainAt(i))
	}
	return dst
}

// tldLister is the optional fast path for enumerating a cursor's TLDs
// without a full pass (worlds and sample views implement it).
type tldLister interface{ TLDs() []string }

// StreamMaterializer materializes one chunk of a domain cursor at a time:
// Prepare(ctx, lo, hi) rebuilds the served world for just that span, and
// Exchange routes queries to the current chunk's network. Signing and
// key-generation cost — the dominant cost of materialization — scales with
// the chunk size instead of the day's population.
//
// Materialization is taken off the sweep's blocking path by prefetching:
// once Prepare has installed a span, it starts building the span most
// likely asked for next in the background, and the next Prepare serves
// that build if (and only if) it asks for exactly that span.
//
// The TLD server table is computed once up front (server names are a pure
// function of the TLD), so scanner configuration is chunk-independent.
type StreamMaterializer struct {
	day simtime.Day
	src DomainSource
	// TLDServers maps each TLD in the population to its registry server
	// name — the same table a whole-day Materialize would produce.
	TLDServers map[string]string

	cur atomic.Pointer[dnsserver.MemNet]

	// next is the speculative build in flight (nil when none); maxSpan is
	// the largest span prepared so far, the guessed size of the next one.
	next    *prefetch
	maxSpan int
}

// prefetch is one background materialization of the span [lo, hi). Once
// done is closed, net holds the built network, or nil if the build failed
// or was cancelled.
type prefetch struct {
	lo, hi int
	cancel context.CancelFunc
	done   chan struct{}
	net    *dnsserver.MemNet
}

// NewStreamMaterializer builds a chunked materializer for one day over the
// cursor. The TLD table is derived from the cursor's TLDs() fast path when
// available, else from one cheap name/TLD pass over the cursor. The cursor
// is read from a background goroutine while the caller scans, so it must
// be safe for concurrent reads (worlds and their sample views are).
func NewStreamMaterializer(day simtime.Day, src DomainSource) *StreamMaterializer {
	m := &StreamMaterializer{day: day, src: src, TLDServers: make(map[string]string)}
	if tl, ok := src.(tldLister); ok {
		for _, tld := range tl.TLDs() {
			m.TLDServers[tld] = tldServerName(tld)
		}
		return m
	}
	for i := 0; i < src.Len(); i++ {
		_, tld := src.Target(i)
		if _, ok := m.TLDServers[tld]; !ok {
			m.TLDServers[tld] = tldServerName(tld)
		}
	}
	return m
}

// Day returns the materialized measurement day.
func (m *StreamMaterializer) Day() simtime.Day { return m.day }

// Prepare materializes the cursor span [lo, hi): real signed zones for
// just those domains, served on a fresh in-memory network that replaces
// the previous chunk's. It is the scan.ChunkPrepare for this cursor, and
// like every ChunkPrepare it is called from one goroutine at a time.
//
// If the speculative build started by the previous call covers exactly
// [lo, hi), Prepare waits for it and installs it; any other span drops
// that build and materializes synchronously. Either way it then starts a
// speculative build of [hi, min(hi+largest span seen, Len)), the span a
// driver walking the cursor in equal chunks asks for next. The build
// stops early when ctx is cancelled.
func (m *StreamMaterializer) Prepare(ctx context.Context, lo, hi int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	net := m.takePrefetch(ctx, lo, hi)
	if net == nil {
		mat, err := materialize(ctx, m.day, CollectDomains(m.src, lo, hi, nil))
		if err != nil {
			return fmt.Errorf("tldsim: materializing chunk [%d,%d): %w", lo, hi, err)
		}
		net = mat.Net
	}
	m.cur.Store(net)
	m.maxSpan = max(m.maxSpan, hi-lo)
	if next := min(hi+m.maxSpan, m.src.Len()); next > hi {
		m.startPrefetch(ctx, hi, next)
	}
	return nil
}

// takePrefetch returns the network of the speculative build if it covers
// exactly [lo, hi) and succeeded, and nil otherwise. A build for another
// span is cancelled and discarded; either way none is left in flight.
func (m *StreamMaterializer) takePrefetch(ctx context.Context, lo, hi int) *dnsserver.MemNet {
	p := m.next
	if p == nil {
		return nil
	}
	m.next = nil
	if p.lo != lo || p.hi != hi {
		p.cancel()
		return nil
	}
	select {
	case <-p.done:
	case <-ctx.Done():
		p.cancel()
		return nil
	}
	// A failed build leaves net nil: the synchronous build then reports
	// the error with its span.
	return p.net
}

// startPrefetch begins the speculative build of [lo, hi).
func (m *StreamMaterializer) startPrefetch(ctx context.Context, lo, hi int) {
	ctx, cancel := context.WithCancel(ctx)
	p := &prefetch{lo: lo, hi: hi, cancel: cancel, done: make(chan struct{})}
	m.next = p
	go func() {
		defer cancel()
		defer close(p.done)
		if mat, err := materialize(ctx, m.day, CollectDomains(m.src, lo, hi, nil)); err == nil {
			p.net = mat.Net
		}
	}()
}

// Exchange routes a query to the currently-prepared chunk's network. It is
// the scanner's Exchange transport: fault middleware stacks above it
// exactly as it stacks above a whole-day Materialized.Net, and faultnet's
// per-question fault hashing depends only on (seed, server, question,
// attempt) — never on which chunk served the answer — so chunked scans see
// the identical fault pattern a whole-day scan would. Querying before the
// first Prepare is an error.
func (m *StreamMaterializer) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	net := m.cur.Load()
	if net == nil {
		return nil, fmt.Errorf("tldsim: StreamMaterializer queried before Prepare")
	}
	return net.Exchange(ctx, server, q)
}

// LossyOperatorsSource deterministically picks frac of the distinct DNS
// operators appearing in the cursor and returns faultnet rules injecting
// packet loss on each of their nameservers, plus the chosen operator
// names (sorted). It walks the population once to collect the distinct
// operators; the selection is seeded, so the same inputs always produce
// the same flaky set.
func LossyOperatorsSource(src DomainSource, frac, loss float64, seed int64) ([]faultnet.Rule, []string) {
	seen := map[string]bool{}
	var operators []string
	for i := 0; i < src.Len(); i++ {
		d := src.DomainAt(i)
		if !seen[d.Operator] {
			seen[d.Operator] = true
			operators = append(operators, d.Operator)
		}
	}
	return lossyFromOperators(operators, frac, loss, seed)
}

// lossyFromOperators applies the seeded selection shared by both fault
// pickers: sort, shuffle, take frac, emit one loss rule per chosen
// operator's nameserver.
func lossyFromOperators(operators []string, frac, loss float64, seed int64) ([]faultnet.Rule, []string) {
	sort.Strings(operators)
	n := int(float64(len(operators)) * frac)
	if n > len(operators) {
		n = len(operators)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(operators), func(i, j int) {
		operators[i], operators[j] = operators[j], operators[i]
	})
	chosen := append([]string(nil), operators[:n]...)
	sort.Strings(chosen)
	rules := make([]faultnet.Rule, 0, n)
	for _, op := range chosen {
		rules = append(rules, faultnet.Rule{Pattern: nsFor(op), Loss: loss})
	}
	return rules, chosen
}
