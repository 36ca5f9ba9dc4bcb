// Package registrarsec is a full-system reproduction of "Understanding the
// Role of Registrars in DNSSEC Deployment" (Chung et al., IMC 2017).
//
// It bundles a complete DNSSEC measurement stack — wire format, signing and
// validation, authoritative serving, iterative validating resolution, an
// OpenINTEL-style scan engine — with a behavioural model of the domain
// registration ecosystem: registries (with ccTLD financial incentives and
// RFC 7344 CDS polling), the paper's named registrars and resellers with
// their observed DNSSEC policies, third-party DNS operators, and the
// out-of-band channels (web forms, email, tickets, live chat) through which
// DS records travel — and so often get lost.
//
// The Study type is the top-level entry point: it builds the world, probes
// registrars exactly as the paper's authors did (by buying domains and
// trying to deploy DNSSEC), runs longitudinal measurements, and regenerates
// every table and figure of the paper's evaluation.
package registrarsec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/probe"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// Re-exported types forming the public API surface.
type (
	// Observation is one registrar's probe result (a Table 2/3 row).
	Observation = probe.Observation
	// SeriesPoint is one day of a deployment time series.
	SeriesPoint = analysis.SeriesPoint
	// CDFPoint is one step of the Figure 3 operator CDF.
	CDFPoint = analysis.CDFPoint
	// TLDOverview is one Table 1 row.
	TLDOverview = analysis.TLDOverview
	// Snapshot is one day of scan records.
	Snapshot = dataset.Snapshot
	// Archive is a day-indexed snapshot store (the longitudinal dataset).
	Archive = dataset.Store
	// ArchiveReport is the integrity accounting of an archive read.
	ArchiveReport = dataset.ArchiveReport
	// Record is one domain's observed state.
	Record = dataset.Record
	// Deployment is the none/partial/full/broken classification.
	Deployment = dnssec.Deployment
	// Day is a simulation day (days since 2015-01-01).
	Day = simtime.Day
	// SurveyRow is one Table 4 row.
	SurveyRow = probe.SurveyRow
	// SweepHealth is a scan sweep's failure-accounting report.
	SweepHealth = scan.SweepHealth
	// FaultRule declares injected transport faults for one server pattern.
	FaultRule = faultnet.Rule
	// Registrar is a live registrar agent.
	Registrar = registrar.Registrar
	// World is the generated domain population.
	World = tldsim.World
	// DistributedResult is a distributed sweep's outcome accounting:
	// coordinator fault stats plus per-day and per-worker health.
	DistributedResult = dsweep.Result
	// SweepStats is the distributed coordinator's fault accounting.
	SweepStats = dsweep.Stats
)

// Deployment classes.
const (
	DeploymentNone    = dnssec.DeploymentNone
	DeploymentPartial = dnssec.DeploymentPartial
	DeploymentFull    = dnssec.DeploymentFull
	DeploymentBroken  = dnssec.DeploymentBroken
)

// Milestone days of the measurement window.
var (
	WindowStart   = simtime.GTLDStart
	WindowEnd     = simtime.End
	NLWindowStart = simtime.NLStart
	SEWindowStart = simtime.SEStart
	CloudflareDay = simtime.CloudflareUniversalDNSSEC
)

// AllTLDs is the study's TLD set: com, net, org, nl, se.
var AllTLDs = tldsim.AllTLDs

// Options configure a Study.
type Options struct {
	// Scale shrinks the domain populations (default 1/1000).
	Scale float64
	// Seed makes the world reproducible (default 1).
	Seed int64
	// SkipWorld omits the domain-population model (probe-only studies).
	SkipWorld bool
	// SkipAgents omits the live registrar agents (measurement-only
	// studies).
	SkipAgents bool
	// WorldCacheDir, when set, caches the generated world on disk keyed
	// by (seed, scale, config fingerprint): the first study builds and
	// saves it, later studies load it in O(seconds).
	WorldCacheDir string
}

// Study is a fully wired reproduction environment.
type Study struct {
	// Eco is the live substrate: root, registries, network, clock.
	Eco *ecosystem.Ecosystem
	// World is the generated domain population (nil with SkipWorld).
	World *tldsim.World
	// Agents are the catalogue registrars by ID (nil with SkipAgents).
	Agents map[string]*registrar.Registrar
	// Top20 and Top10 are the probe populations of Tables 2 and 3.
	Top20, Top10 []*registrar.Registrar
}

// NewStudy builds the ecosystem, the registrar agents, and the domain
// population model.
func NewStudy(opts Options) (*Study, error) {
	if opts.Scale == 0 {
		opts.Scale = 1.0 / 1000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	eco, err := ecosystem.New(ecosystem.Config{
		TLDs: tldsim.AllTLDs,
		Incentives: map[string]*registry.Incentive{
			// The .nl and .se incentive programs (section 6.3): €0.28/yr
			// and ~10 SEK/yr per correctly signed domain, with compliance
			// auditing.
			"nl": {DiscountPerYear: 0.28, MaxFailures: 14, WindowDays: 180},
			"se": {DiscountPerYear: 1.10, MaxFailures: 14, WindowDays: 180},
		},
	})
	if err != nil {
		return nil, err
	}
	s := &Study{Eco: eco}
	if !opts.SkipAgents {
		byID, top20, top10, err := tldsim.BuildAgents(eco.Registries, eco.Net, eco.Clock.Day)
		if err != nil {
			return nil, err
		}
		s.Agents, s.Top20, s.Top10 = byID, top20, top10
	}
	if !opts.SkipWorld {
		cfg := tldsim.WorldConfig{Scale: opts.Scale, Seed: opts.Seed}
		var world *tldsim.World
		var err error
		if opts.WorldCacheDir != "" {
			world, err = tldsim.BuildCached(opts.WorldCacheDir, cfg)
		} else {
			world, err = tldsim.Build(cfg)
		}
		if err != nil {
			return nil, err
		}
		s.World = world
	}
	return s, nil
}

// Prober returns a prober bound to this study's environment.
func (s *Study) Prober() *probe.Prober {
	return probe.New(&probe.Env{
		Net:        s.Eco.Net,
		Registries: s.Eco.Registries,
		Anchor:     s.Eco.Anchor,
		Clock:      s.Eco.Clock.Day,
	})
}

// ProbeTable2 runs the hands-on methodology against the top-20 registrars.
func (s *Study) ProbeTable2() []*Observation {
	return s.Prober().RunAll(context.Background(), s.Top20)
}

// ProbeTable3 runs it against the ten DNSSEC-heavy registrars.
func (s *Study) ProbeTable3() []*Observation {
	return s.Prober().RunAll(context.Background(), s.Top10)
}

// SurveyTable4 asks the eleven DNSSEC-supporting DNS operators for their
// per-TLD standing.
func (s *Study) SurveyTable4() []SurveyRow {
	ids := []string{
		"ovh", "godaddy", "meshdigital", "domainnameshop", "transip",
		"namecheap", "binero", "pcextreme", "antagonist", "loopia", "kpn",
	}
	regs := make([]*registrar.Registrar, 0, len(ids))
	for _, id := range ids {
		if r := s.Agents[id]; r != nil {
			regs = append(regs, r)
		}
	}
	return probe.Survey(regs, s.Agents, tldsim.AllTLDs)
}

// Table1 computes the dataset overview at the end of the window on the
// columnar engine — no snapshot materialization, sharded parallel tally.
func (s *Study) Table1() []TLDOverview {
	return s.World.Index().Overview(simtime.End, tldsim.AllTLDs)
}

// Figure3 computes the three operator CDFs of Figure 3 over the gTLDs,
// counting per dense operator ID instead of rebuilding string-keyed maps
// from a materialized snapshot.
func (s *Study) Figure3() (all, partial, full []CDFPoint) {
	idx := s.World.Index()
	all = idx.OperatorCDF(simtime.End, colstore.ClassAny, tldsim.GTLDs...)
	partial = idx.OperatorCDF(simtime.End, colstore.ClassPartial, tldsim.GTLDs...)
	full = idx.OperatorCDF(simtime.End, colstore.ClassFull, tldsim.GTLDs...)
	return all, partial, full
}

// OperatorsToCover re-exports the CDF coverage helper.
func OperatorsToCover(cdf []CDFPoint, frac float64) int {
	return analysis.OperatorsToCover(cdf, frac)
}

// Series computes a deployment time series for one operator/TLD pair
// ("" = all TLDs) at the given day step.
func (s *Study) Series(operator, tld string, from, to Day, stepDays int) []SeriesPoint {
	return s.World.SeriesFor(operator, tld, from, to, stepDays)
}

// Figure4 returns the OVH and GoDaddy full-deployment series.
func (s *Study) Figure4(stepDays int) (ovh, godaddy []SeriesPoint) {
	return s.Series("ovh.net", "", simtime.GTLDStart, simtime.End, stepDays),
		s.Series("domaincontrol.com", "", simtime.GTLDStart, simtime.End, stepDays)
}

// Figure8 returns the Cloudflare series (DNSKEY growth and the DS gap).
func (s *Study) Figure8(stepDays int) []SeriesPoint {
	return s.Series("cloudflare.com", "", simtime.GTLDStart, simtime.End, stepDays)
}

// ScanSample materializes n sampled domains as real signed DNS at the given
// day and measures them with the scan engine — the live-measurement
// cross-check of the world model. The returned SweepHealth accounts for
// any target the sweep could not measure.
func (s *Study) ScanSample(ctx context.Context, day Day, n int, workers int) (*Snapshot, *SweepHealth, error) {
	return s.ScanSampleFaulty(ctx, day, n, workers, 0, nil)
}

// ScanSampleFaulty is ScanSample under injected transport faults: the
// materialized network is wrapped in a faultnet.Injector driven by the
// seed and rules, so resilience experiments run through the public facade.
// With no rules it degrades to a clean scan.
func (s *Study) ScanSampleFaulty(ctx context.Context, day Day, n int, workers int, faultSeed int64, rules []faultnet.Rule) (*Snapshot, *SweepHealth, error) {
	sample := s.World.Sample(n, int64(day))
	mat, err := tldsim.Materialize(day, sample)
	if err != nil {
		return nil, nil, err
	}
	var mw []exchange.Middleware
	if len(rules) > 0 {
		inj := faultnet.New(nil, faultSeed, func() simtime.Day { return day }, rules...)
		mw = append(mw, inj.Middleware())
	}
	scanner, err := scan.New(scan.Config{
		Exchange:   mat.Net,
		Middleware: mw,
		TLDServers: mat.TLDServers,
		Workers:    workers,
		Clock:      func() simtime.Day { return day },
	})
	if err != nil {
		return nil, nil, err
	}
	targets := make([]scan.Target, 0, len(sample))
	for _, d := range sample {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}
	return scanner.ScanDay(ctx, day, targets)
}

// LongitudinalConfig configures a resumable multi-day sweep.
type LongitudinalConfig struct {
	// Days are the measurement days, oldest first.
	Days []Day
	// Sample is the number of domains drawn from the world (the same
	// sample is tracked across every day, as the paper tracks a fixed
	// population).
	Sample int
	// SampleSeed drives the sample draw (default 1).
	SampleSeed int64
	// Workers is the per-day scan concurrency.
	Workers int
	// Shards is the number of checkpoint units per day (default 4).
	Shards int
	// CheckpointDir, when non-empty, makes the sweep crash-safe: each
	// completed shard is durably checkpointed there, and a re-run resumes
	// from the last completed shard with finished days verified by
	// checksum instead of re-scanned.
	CheckpointDir string
	// FaultSeed and Rules optionally inject transport faults, as in
	// ScanSampleFaulty.
	FaultSeed int64
	Rules     []FaultRule
	// OnDayHealth and OnEvent receive per-day health reports and resume
	// progress lines.
	OnDayHealth func(day Day, h *SweepHealth)
	OnEvent     func(format string, args ...any)
}

// ScanLongitudinal runs a multi-day, checkpoint-resumable measurement
// sweep over one fixed domain sample — the paper's 21-month daily series
// in miniature, hardened against the process dying partway. On context
// cancellation (e.g. SIGINT) it persists a clean checkpoint and returns
// the context's error; calling it again with the same configuration
// resumes instead of restarting, and the final archive is byte-identical
// to an uninterrupted run.
func (s *Study) ScanLongitudinal(ctx context.Context, cfg LongitudinalConfig) (*Archive, error) {
	mkSetup, err := s.longitudinalSetup(&cfg)
	if err != nil {
		return nil, err
	}
	var cp *checkpoint.Store
	if cfg.CheckpointDir != "" {
		if cp, err = checkpoint.Open(cfg.CheckpointDir); err != nil {
			return nil, err
		}
	}
	rs := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: longitudinalFingerprint(&cfg),
		Shards:      cfg.Shards,
		StreamSetup: mkSetup(),
		OnDayHealth: cfg.OnDayHealth,
		OnEvent:     cfg.OnEvent,
	}
	store := dataset.NewStore()
	err = rs.RunStream(ctx, cfg.Days, func(day Day, sw *dataset.SpillWriter) error {
		snap := &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 0, sw.Len())}
		err := sw.EachSorted(func(r *dataset.Record) error {
			snap.Records = append(snap.Records, *r)
			return nil
		})
		store.Add(snap)
		return err
	})
	return store, err
}

// longitudinalFingerprint binds checkpoint state to the sweep configuration.
func longitudinalFingerprint(cfg *LongitudinalConfig) string {
	return fmt.Sprintf("sample=%d seed=%d days=%v shards=%d faults=%d",
		cfg.Sample, cfg.SampleSeed, cfg.Days, cfg.Shards, len(cfg.Rules))
}

// longitudinalSetup validates and defaults the configuration, draws the
// sweep's fixed domain sample, and returns a factory of per-worker day
// setups: each call yields an independent setup closure over the same
// sample, so concurrent distributed workers never share a scanner or an
// exchange stack. Each day materializes the whole sample once and serves
// the fixed target slice with no per-chunk prepare.
func (s *Study) longitudinalSetup(cfg *LongitudinalConfig) (func() scan.StreamDaySetup, error) {
	if s.World == nil {
		return nil, fmt.Errorf("study: a longitudinal sweep requires a world (Options.SkipWorld unset)")
	}
	if len(cfg.Days) == 0 {
		return nil, fmt.Errorf("study: no measurement days")
	}
	if cfg.SampleSeed == 0 {
		cfg.SampleSeed = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	sample := s.World.Sample(cfg.Sample, cfg.SampleSeed)
	targets := make([]scan.Target, 0, len(sample))
	for _, d := range sample {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}
	rules := cfg.Rules
	faultSeed := cfg.FaultSeed
	workers := cfg.Workers
	mk := func() scan.StreamDaySetup {
		return func(ctx context.Context, day Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
			mat, err := tldsim.Materialize(day, sample)
			if err != nil {
				return nil, nil, nil, err
			}
			var mw []exchange.Middleware
			if len(rules) > 0 {
				inj := faultnet.New(nil, faultSeed, func() simtime.Day { return day }, rules...)
				mw = append(mw, inj.Middleware())
			}
			scanner, err := scan.New(scan.Config{
				Exchange:   mat.Net,
				Middleware: mw,
				TLDServers: mat.TLDServers,
				Workers:    workers,
				Clock:      func() simtime.Day { return day },
			})
			if err != nil {
				return nil, nil, nil, err
			}
			return scanner, scan.SliceTargets(targets), nil, nil
		}
	}
	return mk, nil
}

// DistributedConfig configures ScanDistributed.
type DistributedConfig struct {
	// Longitudinal is the sweep definition: days, sample, sharding, faults.
	// CheckpointDir is mandatory — it is the workers' shared shard store.
	Longitudinal LongitudinalConfig
	// Fleet is the number of concurrent sweep workers (default 2). Each
	// worker owns a full exchange stack and claims (day, shard) leases
	// from the in-process coordinator.
	Fleet int
	// LeaseTTL is the coordinator's lease deadline budget (default 30s).
	LeaseTTL time.Duration
}

// ScanDistributed runs the longitudinal sweep through the crash-tolerant
// coordinator/worker topology of internal/dsweep: Fleet workers lease
// (day, shard) units, flush checksummed shard archives into the shared
// checkpoint directory, and the coordinator's CRC-verified merge yields an
// archive byte-identical to ScanLongitudinal of the same configuration. A
// previous partial run in the same checkpoint directory is adopted, not
// redone. The checkpoint directory is left for the caller to clear once
// the archive is durable.
func (s *Study) ScanDistributed(ctx context.Context, cfg DistributedConfig) (*Archive, *DistributedResult, error) {
	lc := cfg.Longitudinal
	mkSetup, err := s.longitudinalSetup(&lc)
	if err != nil {
		return nil, nil, err
	}
	if lc.CheckpointDir == "" {
		return nil, nil, fmt.Errorf("study: a distributed sweep requires a checkpoint directory (the workers' shared shard store)")
	}
	if cfg.Fleet <= 0 {
		cfg.Fleet = 2
	}
	cp, err := checkpoint.Open(lc.CheckpointDir)
	if err != nil {
		return nil, nil, err
	}
	plan := dsweep.Plan{
		Fingerprint: "dsweep " + longitudinalFingerprint(&lc),
		Days:        lc.Days,
		Shards:      lc.Shards,
	}
	workers := make([]dsweep.WorkerSpec, 0, cfg.Fleet)
	for i := 0; i < cfg.Fleet; i++ {
		workers = append(workers, dsweep.WorkerSpec{
			Name:        fmt.Sprintf("w%02d", i+1),
			StreamSetup: mkSetup(),
		})
	}
	store, res, err := dsweep.RunLocal(ctx, dsweep.LocalConfig{
		Plan:     plan,
		Store:    cp,
		LeaseTTL: cfg.LeaseTTL,
		Workers:  workers,
		OnEvent:  lc.OnEvent,
	})
	if err != nil {
		return nil, res, err
	}
	if lc.OnDayHealth != nil {
		for _, day := range lc.Days {
			if h := res.HealthByDay[day]; h != nil {
				lc.OnDayHealth(day, h)
			}
		}
	}
	return store, res, nil
}

// RenderTable2 formats Table 2 observations with per-registrar domain
// counts from the world model.
func (s *Study) RenderTable2(obs []*Observation) string {
	counts := map[string]int{}
	if s.World != nil {
		counts = s.World.DomainsByRegistrar("com", "net", "org")
	}
	return probe.RenderTable2(obs, counts)
}

// RenderTable3 formats Table 3 observations with DNSKEY counts.
func (s *Study) RenderTable3(obs []*Observation) string {
	counts := map[string]int{}
	if s.World != nil {
		counts = s.World.DNSKEYDomainsByRegistrar(simtime.End, "com", "net", "org")
	}
	return probe.RenderTable3(obs, counts)
}

// RenderTable4 formats the survey matrix.
func RenderTable4(rows []SurveyRow) string {
	return probe.RenderTable4(rows, tldsim.AllTLDs)
}

// RenderTable1 formats the dataset overview.
func RenderTable1(rows []TLDOverview) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s  %12s  %10s  %10s  %10s\n", "TLD", "Domains", "%DNSKEY", "%Full", "%Partial")
	sb.WriteString(strings.Repeat("-", 56))
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, ".%-4s  %12d  %9.2f%%  %9.2f%%  %9.2f%%\n",
			r.TLD, r.Domains, r.PctDNSKEY, r.PctFull, r.PctPartial)
	}
	return sb.String()
}

// Summarize tallies probe observations into the section-5 headline counts.
func Summarize(obs []*Observation) probe.Table2Summary {
	return probe.Summarize(obs)
}
