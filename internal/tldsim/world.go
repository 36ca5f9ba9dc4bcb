package tldsim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// WorldConfig parameterizes world generation.
type WorldConfig struct {
	// Scale multiplies every population (default 1/1000 — .com becomes
	// ~118k domains instead of 118M). Percentages are scale-invariant.
	Scale float64
	// Seed drives all sampling; same seed → same world.
	Seed int64
	// TailOperators is the number of anonymous tail operators per TLD
	// (defaults chosen so the total operator count is ~10^4, matching the
	// x-axis of Figure 3).
	TailOperators map[string]int
	// WindowStart/WindowEnd bound the measurement (defaults: the paper's).
	WindowStart, WindowEnd simtime.Day
	// Workers bounds the parallelism of the streaming build (0 = all
	// cores). The generated world is byte-identical for a given seed
	// regardless of this value, so it is excluded from the config
	// fingerprint.
	Workers int
}

func (c *WorldConfig) fill() {
	if c.Scale == 0 {
		c.Scale = 1.0 / 1000
	}
	if c.WindowStart == 0 {
		c.WindowStart = simtime.GTLDStart
	}
	if c.WindowEnd == 0 {
		c.WindowEnd = simtime.End
	}
	if c.TailOperators == nil {
		c.TailOperators = map[string]int{
			"com": 6000, "net": 1300, "org": 1100, "nl": 1000, "se": 600,
		}
	}
}

// DomainState is one simulated domain's full history, from which any day's
// DNS state follows.
type DomainState struct {
	Name      string
	TLD       string
	Operator  string
	Registrar string
	// Created is the registration day (may precede the window).
	Created simtime.Day
	// KeyDay is when DNSKEYs first appear (simtime.Never if never).
	KeyDay simtime.Day
	// DSDay is when the DS reaches the registry (simtime.Never if never).
	DSDay simtime.Day
	// BrokenDS marks a DS that matches no served key.
	BrokenDS bool
	// ExpiredSig marks a zone whose RRSIGs are past their validity window.
	ExpiredSig bool
}

// World is a generated ecosystem population. Its canonical representation
// is the columnar index, which every constructor sets: the build streams
// cohorts into it without ever materializing []DomainState.
type World struct {
	Config WorldConfig
	// Cohorts are the resolved (scaled) cohorts, named then tail.
	Cohorts []Cohort

	// idx is the columnar analytics index. Every snapshot, series and
	// aggregation query routes through it.
	idx *colstore.Index
}

// Index returns the world's columnar analytics engine.
func (w *World) Index() *colstore.Index { return w.idx }

// Len returns the population size without materializing anything.
func (w *World) Len() int { return w.idx.Len() }

// DomainAt projects one domain out of the population by a column gather.
func (w *World) DomainAt(i int) DomainState {
	d := w.idx.Row(i)
	return DomainState{
		Name:       d.Name,
		TLD:        d.TLD,
		Operator:   d.Operator,
		Registrar:  d.Registrar,
		Created:    d.Created,
		KeyDay:     d.KeyDay,
		DSDay:      d.DSDay,
		BrokenDS:   d.BrokenDS,
		ExpiredSig: d.ExpiredSig,
	}
}

// AllDomains materializes the full population as DomainStates. Intended
// for small worlds (tests, ablations); at scale, iterate DomainAt or use
// the index directly.
func (w *World) AllDomains() []DomainState {
	n := w.Len()
	out := make([]DomainState, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, w.DomainAt(i))
	}
	return out
}

// tailDSByTLD encodes how the anonymous tail handles DS records: gTLD tail
// operators upload DS for under half of their signed domains (the paper
// finds ~30% of DNSKEY domains lack DS, concentrated in a few operators,
// plus pervasive non-validation); .nl/.se tails are incentive-audited and
// mostly complete.
var tailDSByTLD = map[string]DSSpec{
	"com": {Mode: DSWithKey, Prob: 0.62, BrokenFrac: 0.05},
	"net": {Mode: DSWithKey, Prob: 0.62, BrokenFrac: 0.05},
	"org": {Mode: DSWithKey, Prob: 0.62, BrokenFrac: 0.05},
	"nl":  {Mode: DSWithKey, Prob: 0.95, BrokenFrac: 0.015},
	"se":  {Mode: DSWithKey, Prob: 0.94, BrokenFrac: 0.015},
}

// planCohorts resolves the full cohort list for a config: named cohorts
// from the catalogue plus a power-law tail per TLD calibrated so each TLD
// hits its Table 1 size and DNSKEY percentage. Deterministic and cheap —
// no per-domain sampling happens here.
func planCohorts(cfg WorldConfig) ([]Cohort, error) {
	named := NamedCohorts()
	// Scale the named cohorts and account per-TLD totals.
	namedDomains := make(map[string]int)    // tld -> scaled named population
	namedKeyEnd := make(map[string]float64) // tld -> expected DNSKEY count at window end
	var cohorts []Cohort
	for _, c := range named {
		c.Domains = int(math.Round(float64(c.Domains) * cfg.Scale))
		if c.Domains == 0 {
			continue
		}
		namedDomains[c.TLD] += c.Domains
		namedKeyEnd[c.TLD] += float64(c.Domains) * c.Key.EndFrac
		cohorts = append(cohorts, c)
	}

	// Tail per TLD: fill the population gap with power-law-sized anonymous
	// operators whose DNSKEY fraction closes the gap to the Table 1
	// percentage.
	for _, tld := range AllTLDs {
		total := int(math.Round(float64(TLDTotals[tld]) * cfg.Scale))
		tailTotal := total - namedDomains[tld]
		if tailTotal <= 0 {
			return nil, fmt.Errorf("tldsim: named cohorts exceed .%s population (%d > %d)", tld, namedDomains[tld], total)
		}
		targetKey := float64(total) * TLDKeyPct[tld] / 100
		tailKeyFrac := (targetKey - namedKeyEnd[tld]) / float64(tailTotal)
		if tailKeyFrac < 0 {
			tailKeyFrac = 0
		}
		if tailKeyFrac > 1 {
			tailKeyFrac = 1
		}
		sizes := powerLawSizes(cfg.TailOperators[tld], tailTotal)
		ds := tailDSByTLD[tld]
		for i, size := range sizes {
			if size == 0 {
				continue
			}
			cohorts = append(cohorts, Cohort{
				Operator: fmt.Sprintf("tail%04d.%s-hosting.example", i, tld),
				TLD:      tld,
				Domains:  size,
				// Tail adoption grows modestly across the window (the
				// paper: "rare ... but growing").
				Key: Linear(tailKeyFrac*0.8, tailKeyFrac),
				DS:  ds,
				// Small self-hosted operators let signatures lapse.
				ExpiredSigFrac: 0.03,
			})
		}
	}
	return cohorts, nil
}

// Build generates the world with the streaming columnar pipeline: cohorts
// are sampled in parallel into per-cohort column shards and merged into
// the canonical index without ever materializing []DomainState. The
// result is byte-identical for a given seed regardless of worker count.
func Build(cfg WorldConfig) (*World, error) {
	cfg.fill()
	cohorts, err := planCohorts(cfg)
	if err != nil {
		return nil, err
	}
	w := &World{Config: cfg, Cohorts: cohorts}
	w.idx = buildIndexStreaming(&cfg, cohorts, cfg.Seed, cfg.Workers)
	return w, nil
}

// BuildCustom generates a streaming world from an explicit cohort list
// (no named catalogue, no tail) — for ablations and focused experiments.
func BuildCustom(cfg WorldConfig, cohorts []Cohort) (*World, error) {
	cfg.fill()
	scaled := make([]Cohort, 0, len(cohorts))
	for _, c := range cohorts {
		c.Domains = int(math.Round(float64(c.Domains) * cfg.Scale))
		if c.Domains > 0 {
			scaled = append(scaled, c)
		}
	}
	w := &World{Config: cfg, Cohorts: scaled}
	w.idx = buildIndexStreaming(&cfg, scaled, cfg.Seed, cfg.Workers)
	return w, nil
}

// cohortSeed derives cohort ci's independent RNG stream from the base
// seed via a splitmix64-style mix: adjacent cohorts get decorrelated
// streams, and each stream depends only on (base, ci) — not on which
// worker runs it or in what order — which is what makes the parallel
// build deterministic.
func cohortSeed(base int64, ci int) int64 {
	z := uint64(base) + uint64(ci+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// domainDraw is one domain's sampled history, before naming.
type domainDraw struct {
	created simtime.Day
	keyDay  simtime.Day
	dsDay   simtime.Day
	broken  bool
	expired bool
}

// drawDomain samples one domain's history from its cohort profile. The
// draw order (created, key, DS, expired) is fixed: a cohort's RNG stream
// yields the same population on any worker and in the test-only
// sequential sampler that serves as the build's oracle.
func drawDomain(rng *rand.Rand, c *Cohort, cfg *WorldConfig) domainDraw {
	// Registrations spread over the three years before the window end;
	// most predate the window start.
	created := simtime.Day(rng.Intn(int(cfg.WindowStart)+700)) - 700
	keyDay := c.Key.sampleKeyDay(rng, created, cfg.WindowStart, cfg.WindowEnd)
	dsDay, broken := c.DS.sampleDS(rng, keyDay, created)
	expired := keyDay != simtime.Never && c.ExpiredSigFrac > 0 &&
		rng.Float64() < c.ExpiredSigFrac
	return domainDraw{created: created, keyDay: keyDay, dsDay: dsDay, broken: broken, expired: expired}
}

// domainName formats "d<idx, zero-padded to 7>-<slug>.<tld>" where suffix
// is the precomputed "-<slug>.<tld>" fragment. Equivalent to
// fmt.Sprintf("d%07d%s", idx, suffix) without the formatting overhead.
func domainName(idx int, suffix string) string {
	var digits [20]byte
	b := strconv.AppendInt(digits[:0], int64(idx), 10)
	pad := 7 - len(b)
	if pad < 0 {
		pad = 0
	}
	out := make([]byte, 0, 1+pad+len(b)+len(suffix))
	out = append(out, 'd')
	for i := 0; i < pad; i++ {
		out = append(out, '0')
	}
	out = append(out, b...)
	out = append(out, suffix...)
	return string(out)
}

// cohortSuffix is the per-cohort name fragment shared by every domain.
func cohortSuffix(c *Cohort) string {
	return "-" + slug(c.Operator) + "." + c.TLD
}

// shardChunkDomains is the target row count per generation shard. The
// power-law tail yields tens of thousands of cohorts of a handful of
// domains each; giving every one its own shard would make fixed per-shard
// overhead dominate the build at small scale. Instead contiguous cohorts
// are batched into chunks of roughly this many domains. The boundaries
// depend only on the cohort sizes — never on the worker count — so the
// chunking cannot perturb the byte-identity guarantee.
const shardChunkDomains = 4096

// buildIndexStreaming is the parallel sharded generation pipeline:
// contiguous cohorts are batched into column-shard chunks, filled by a
// worker pool, and merged in chunk order. Cohort ci always draws from
// cohortSeed(baseSeed, ci) and names its domains from the prefix-sum
// start index regardless of which chunk or worker it lands on, so the
// merged index — and its serialized bytes — are identical for any worker
// count, and identical domain-for-domain to a sequential sampler.
func buildIndexStreaming(cfg *WorldConfig, cohorts []Cohort, baseSeed int64, workers int) *colstore.Index {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	starts := make([]int, len(cohorts)+1)
	for i := range cohorts {
		starts[i+1] = starts[i] + cohorts[i].Domains
	}
	// Chunk boundaries: close a chunk once it has accumulated the target
	// domain count. chunks[k]..chunks[k+1] is a half-open cohort range.
	chunks := []int{0}
	acc := 0
	for ci := range cohorts {
		acc += cohorts[ci].Domains
		if acc >= shardChunkDomains {
			chunks = append(chunks, ci+1)
			acc = 0
		}
	}
	if chunks[len(chunks)-1] != len(cohorts) {
		chunks = append(chunks, len(cohorts))
	}
	shards := make([]*colstore.Shard, len(chunks)-1)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				lo, hi := chunks[job], chunks[job+1]
				s := colstore.NewShard(starts[hi] - starts[lo])
				for ci := lo; ci < hi; ci++ {
					fillCohort(s, cfg, &cohorts[ci], cohortSeed(baseSeed, ci), starts[ci])
				}
				shards[job] = s
			}
		}()
	}
	for job := range shards {
		jobs <- job
	}
	close(jobs)
	wg.Wait()
	return colstore.MergeShards(shards)
}

// fillCohort samples one cohort into the shard from its own RNG stream.
func fillCohort(s *colstore.Shard, cfg *WorldConfig, c *Cohort, seed int64, nameStart int) {
	rng := rand.New(rand.NewSource(seed))
	suffix := cohortSuffix(c)
	ns := nsFor(c.Operator)
	for i := 0; i < c.Domains; i++ {
		dr := drawDomain(rng, c, cfg)
		s.Add(colstore.Domain{
			Name:       domainName(nameStart+i, suffix),
			TLD:        c.TLD,
			Operator:   c.Operator,
			Registrar:  c.Registrar,
			NSHost:     ns,
			Created:    dr.created,
			KeyDay:     dr.keyDay,
			DSDay:      dr.dsDay,
			BrokenDS:   dr.broken,
			ExpiredSig: dr.expired,
		})
	}
}

// slug shortens an operator name into a domain-label-safe fragment.
func slug(operator string) string {
	out := make([]byte, 0, 12)
	for i := 0; i < len(operator) && len(out) < 12; i++ {
		ch := operator[i]
		if ch >= 'a' && ch <= 'z' || ch >= '0' && ch <= '9' {
			out = append(out, ch)
		}
	}
	return string(out)
}

// powerLawSizes distributes total domains over k operators with a power-law
// profile (exponent solved so the largest operator stays moderate), largest
// first. The distribution shape drives the long tail of Figure 3.
func powerLawSizes(k, total int) []int {
	if k <= 0 {
		k = 1
	}
	if k > total {
		k = total
	}
	// Find s such that sizes c*i^-s sum to the total with a head size of
	// about total/20 (keeps tail operators below the named ones).
	head := float64(total) / 20
	if head < 1 {
		head = 1
	}
	s := solveExponent(k, float64(total)/head)
	weights := make([]float64, k)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s)
		sum += weights[i]
	}
	sizes := make([]int, k)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(total) * weights[i] / sum)
		assigned += sizes[i]
	}
	// Distribute the rounding remainder over the smallest operators so
	// everyone has at least one domain where possible.
	for i := 0; assigned < total; i = (i + 1) % k {
		sizes[k-1-i]++
		assigned++
	}
	return sizes
}

// solveExponent finds s with sum(i^-s)/1^-s == ratio via bisection: the
// ratio of total mass to head mass determines the tail flatness.
func solveExponent(k int, ratio float64) float64 {
	lo, hi := 0.0, 3.0
	f := func(s float64) float64 {
		sum := 0.0
		for i := 1; i <= k; i++ {
			sum += math.Pow(float64(i), -s)
		}
		return sum
	}
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if f(mid) > ratio {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// SnapshotAt projects the whole world onto one day through the columnar
// engine: a prebuilt record template is copied and only the day-dependent
// booleans are patched, with one shared NS-host slice per operator.
func (w *World) SnapshotAt(day simtime.Day) *dataset.Snapshot {
	return w.Index().Snapshot(day)
}

// SeriesFor computes a daily deployment series for one operator (all its
// TLDs when tld == "", one otherwise) on the columnar engine: the
// operator's day-sorted event groups are swept once with advancing
// cursors, so an N-day series costs O(operator events + days) instead of
// a full population scan plus per-query sorting.
func (w *World) SeriesFor(operator, tld string, from, to simtime.Day, stepDays int) []analysis.SeriesPoint {
	return w.Index().Series(operator, tld, from, to, stepDays)
}

// OperatorsOf lists the operators a named registrar runs (from the named
// cohorts), for joining probe output with measurement series.
func OperatorsOf(registrarName string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range NamedCohorts() {
		if c.Registrar == registrarName && !seen[c.Operator] {
			seen[c.Operator] = true
			out = append(out, c.Operator)
		}
	}
	return out
}

// DomainsByRegistrar tallies scaled population per named registrar in the
// given TLDs (for the Table 2 "Domains" column), via the dense registrar
// ID column.
func (w *World) DomainsByRegistrar(tlds ...string) map[string]int {
	return w.Index().DomainsByRegistrar(tlds...)
}

// DNSKEYDomainsByRegistrar tallies DNSKEY-publishing domains per named
// registrar at the given day (for the Table 3 column).
func (w *World) DNSKEYDomainsByRegistrar(day simtime.Day, tlds ...string) map[string]int {
	return w.Index().DNSKEYByRegistrar(day, tlds...)
}
