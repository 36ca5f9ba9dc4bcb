package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// sweepConfig sizes the sweep workloads.
type sweepConfig struct {
	Divisor   float64 // world population divisor (40 → 3.7M domains)
	Sample    int     // targets per day
	Days      []simtime.Day
	Chunk     int   // targets per materialize+scan+checkpoint unit
	Shards    int   // checkpoint shards per day
	MemBudget int64 // spill budget per day, small enough that days spill
	SetupReps int   // world build+save+load repetitions; setup_s is their median
	Retries   int   // per-query attempt budget
	Resweeps  int   // re-sweep passes over a chunk's failed targets

	// Lossy configuration (zero FaultFrac is the clean sweep). Which
	// operators are lossy decides how many targets wait on retries: with
	// half of them lossy, whether a large operator was drawn moved
	// throughput by half between seeds, so the workload makes every
	// operator lossy and the figures depend on the pipeline, not the draw.
	FaultFrac float64
	FaultLoss float64
	FaultSeed int64
	Cache     bool
	Dedup     bool
}

// sweepDays are the measurement days of one pass: three days across the
// paper's window, so signed fractions and operator mixes differ per day.
var sweepDays = []simtime.Day{simtime.Date(2015, 9, 1), simtime.Date(2016, 4, 1), simtime.End}

func sweepFull() sweepConfig {
	return sweepConfig{
		Divisor: 40, Sample: 12000, Days: sweepDays, Chunk: 1000, Shards: 4,
		MemBudget: 1 << 20, SetupReps: 3, Retries: 3, Resweeps: 2,
	}
}

func sweepLossyFull() sweepConfig {
	c := sweepFull()
	// Which queries faultnet drops is a function of the question, so the
	// sample size sets how many independent loss draws a pass makes: at
	// 600 targets the per-seed retry count, and with it throughput, moved
	// by a tenth between seeds.
	c.Sample = 1800
	c.Chunk = 75 // divides the 450-target shards: equal chunks keep the chunk-time median unimodal
	c.MemBudget = 64 << 10
	c.FaultFrac, c.FaultLoss, c.FaultSeed = 1, 0.2, 1
	c.Cache, c.Dedup = true, true
	return c
}

func runSweep(cfg runConfig) (*outcome, error) { return sweepWorkload(cfg, sweepFull(), "sweep") }
func runSweepLossy(cfg runConfig) (*outcome, error) {
	return sweepWorkload(cfg, sweepLossyFull(), "sweep-lossy")
}

// sweepWorld is the set-up product: an mmap-loaded world.
type sweepWorld struct {
	world                *tldsim.World
	setupSamples         []float64
	buildS, saveS, loadS []float64
}

// setupWorld builds, saves and mmap-loads the world SetupReps times and
// keeps the last load. The built world is dropped before loading, so the
// sweep runs over a file-backed population, as production -world-cache
// runs do.
func setupWorld(cfg runConfig, sc sweepConfig, rec *recorder) (*sweepWorld, error) {
	sw := &sweepWorld{}
	for i := 0; i < sc.SetupReps; i++ {
		path := filepath.Join(cfg.Dir, fmt.Sprintf("world-%d.rscw", i))
		sp := rec.start("tldsim", "tldsim.build", 0, int64(i+1))
		t0 := time.Now()
		built, err := tldsim.Build(tldsim.WorldConfig{Scale: 1 / sc.Divisor, Seed: cfg.Seed, Workers: runtime.NumCPU()})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		rec.end(sp)
		sp = rec.start("colstore", "colstore.save", 0, int64(i+1))
		if err := built.Save(path); err != nil {
			return nil, err
		}
		t2 := time.Now()
		rec.end(sp)
		built = nil
		runtime.GC()
		sp = rec.start("colstore", "colstore.load", 0, int64(i+1))
		t3 := time.Now()
		w, _, err := tldsim.LoadWorld(path)
		if err != nil {
			return nil, err
		}
		t4 := time.Now()
		rec.end(sp)
		if sw.world != nil {
			sw.world.Close()
		}
		sw.world = w
		sw.buildS = append(sw.buildS, t1.Sub(t0).Seconds())
		sw.saveS = append(sw.saveS, t2.Sub(t1).Seconds())
		sw.loadS = append(sw.loadS, t4.Sub(t3).Seconds())
		sw.setupSamples = append(sw.setupSamples, t2.Sub(t0).Seconds()+t4.Sub(t3).Seconds())
		cfg.Logf("setup %d: build %.2fs save %.2fs load %.3fs (%d domains)", i+1, t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t4.Sub(t3).Seconds(), w.Len())
	}
	return sw, nil
}

// spec is the production sweep specification for this workload.
func (sc sweepConfig) spec(seed int64) *dsweep.WorldSpec {
	return &dsweep.WorldSpec{
		ScaleDiv: sc.Divisor, Seed: seed, Sample: sc.Sample,
		Workers: runtime.NumCPU(), Chunk: sc.Chunk, Retries: sc.Retries, Resweeps: sc.Resweeps,
		Cache: sc.Cache, Dedup: sc.Dedup,
		FaultFrac: sc.FaultFrac, FaultLoss: sc.FaultLoss, FaultSeed: sc.FaultSeed,
	}
}

// passResult is one pass over the sample × days.
type passResult struct {
	wall       time.Duration
	cpu        float64
	domainDays int64
	failed     int64
	unbalanced int
	digest     string
	chunkCycle latencies // prepare start → next prepare start (or day sink)
	chunkScan  latencies // prepare end → next prepare start (or day sink)
	dayLag     latencies // day set-up → section archived
	health     []*scan.SweepHealth

	prepare     time.Duration
	dayWall     time.Duration
	sinkTime    time.Duration
	closeTime   time.Duration
	spillRuns   int
	spillBytes  int64
	cpFiles     int
	cpBytes     int64
	memnetN     int64
	memnetBusy  time.Duration
	attemptBusy time.Duration
	workerTime  time.Duration
	stackTotals exchange.Counters
}

// passHooks times the hooks RunStream exposes: the day set-up, each
// chunk's prepare, and the day sink. With a recorder it also records
// spans and folds exchange counts into each chunk's span.
type passHooks struct {
	rec              *recorder
	pass             spanID
	res              *passResult
	memnet, attempts *exchangeTimer // traced pass only

	mu        sync.Mutex
	day       spanID
	dayStart  time.Time
	chunk     spanID
	cycleFrom time.Time // current chunk's prepare start
	scanFrom  time.Time // current chunk's prepare end
	n0, b0    int64     // memnet counters at chunk start
}

// closeChunk ends the chunk in flight at t.
func (h *passHooks) closeChunk(t time.Time) {
	if h.scanFrom.IsZero() {
		return
	}
	h.res.chunkCycle.add(t.Sub(h.cycleFrom))
	scanD := t.Sub(h.scanFrom)
	h.res.chunkScan.add(scanD)
	h.res.workerTime += scanD * time.Duration(runtime.NumCPU())
	if h.memnet != nil {
		n, b := h.memnet.n.Load(), h.memnet.busy.Load()
		h.rec.fold(h.chunk, n-h.n0, time.Duration(b-h.b0))
	}
	h.rec.end(h.chunk)
	h.scanFrom, h.cycleFrom = time.Time{}, time.Time{}
}

// wrapSetup wraps a day set-up so its prepare hook is timed.
func (h *passHooks) wrapSetup(setup scan.StreamDaySetup) scan.StreamDaySetup {
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		h.mu.Lock()
		h.dayStart = time.Now()
		h.day = h.rec.start("scan", "scan.day", h.pass, int64(day))
		h.mu.Unlock()
		scanner, src, prepare, err := setup(ctx, day)
		if err != nil || prepare == nil {
			return scanner, src, prepare, err
		}
		timed := func(ctx context.Context, lo, hi int) error {
			h.mu.Lock()
			now := time.Now()
			h.closeChunk(now)
			sp := h.rec.start("tldsim", "tldsim.prepare", h.day, 0)
			h.mu.Unlock()
			err := prepare(ctx, lo, hi)
			h.mu.Lock()
			defer h.mu.Unlock()
			h.rec.end(sp)
			end := time.Now()
			h.res.prepare += end.Sub(now)
			h.cycleFrom, h.scanFrom = now, end
			h.chunk = h.rec.start("scan", "scan.chunk", h.day, 0)
			if h.memnet != nil {
				h.n0, h.b0 = h.memnet.n.Load(), h.memnet.busy.Load()
			}
			return err
		}
		return scanner, src, timed, nil
	}
}

// exchangeTimer accumulates a count of exchanges and their summed
// duration across every exchanger wrapped with it.
type exchangeTimer struct {
	n    atomic.Int64
	busy atomic.Int64
}

// wrap returns inner with every exchange counted and timed.
func (t *exchangeTimer) wrap(inner exchange.Exchanger) exchange.Exchanger {
	return timedExchanger{inner: inner, t: t}
}

type timedExchanger struct {
	inner exchange.Exchanger
	t     *exchangeTimer
}

func (te timedExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	t0 := time.Now()
	resp, err := te.inner.Exchange(ctx, server, q)
	te.t.busy.Add(int64(time.Since(t0)))
	te.t.n.Add(1)
	return resp, err
}

// tracedSetup is the traced pass's day set-up. It assembles the sweep
// the way dsweep.WorldSpec.BuildStreamWith does, from the same public
// constructors, but with the materializer's transport and the retry
// layer's attempts passing through timing wrappers (scan.Config.Exchange
// and the scan.Config.Middleware slot). The pass's archive digest must
// equal the untraced passes', which checks that the two assemblies match.
func tracedSetup(world *tldsim.World, sc sweepConfig, seed int64, h *passHooks) scan.StreamDaySetup {
	workers := runtime.NumCPU()
	src := world.SampleSource(sc.Sample, seed)
	h.memnet, h.attempts = &exchangeTimer{}, &exchangeTimer{}
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		sm := tldsim.NewStreamMaterializer(day, src)
		clock := func() simtime.Day { return day }
		mw := []exchange.Middleware{h.attempts.wrap}
		if sc.FaultFrac > 0 {
			rules, _ := tldsim.LossyOperatorsSource(src, sc.FaultFrac, sc.FaultLoss, sc.FaultSeed)
			mw = append(mw, faultnet.New(nil, sc.FaultSeed, clock, rules...).Middleware())
		}
		var cacheOpts *exchange.CacheOptions
		if sc.Cache {
			cacheOpts = &exchange.CacheOptions{}
		}
		scanner, err := scan.New(scan.Config{
			Exchange: h.memnet.wrap(sm), Middleware: mw, Dedup: sc.Dedup, Cache: cacheOpts,
			TLDServers: sm.TLDServers, Workers: workers, Clock: clock,
			Retry: retry.Policy{MaxAttempts: sc.Retries}, MaxResweeps: sc.Resweeps,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		prepare := func(ctx context.Context, lo, hi int) error {
			if sc.Cache {
				scanner.Stack().FlushCache()
			}
			return sm.Prepare(ctx, lo, hi)
		}
		return scanner, src, prepare, nil
	}
}

// runPass runs one full streaming sweep — checkpoint, spill, archive —
// into a fresh directory and removes it afterwards.
func runPass(ctx context.Context, cfg runConfig, sc sweepConfig, world *tldsim.World, idx int, rec *recorder, parent spanID) (*passResult, error) {
	dir := filepath.Join(cfg.Dir, fmt.Sprintf("pass-%d", idx))
	cpDir, spillDir := filepath.Join(dir, "checkpoint"), filepath.Join(dir, "spill")
	for _, d := range []string{cpDir, spillDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	defer os.RemoveAll(dir)

	res := &passResult{}
	h := &passHooks{rec: rec, res: res}
	h.pass = rec.start("scan", "scan.pass", parent, int64(idx+1))
	defer rec.end(h.pass)

	spec := sc.spec(cfg.Seed)
	var setup scan.StreamDaySetup
	if rec != nil {
		setup = tracedSetup(world, sc, cfg.Seed, h)
	} else {
		var err error
		if setup, err = spec.BuildStreamWith(world, nil, 0, nil); err != nil {
			return nil, err
		}
	}
	cp, err := checkpoint.Open(cpDir)
	if err != nil {
		return nil, err
	}
	archive := filepath.Join(dir, "archive.tsv")
	aw, err := dataset.NewArchiveWriter(archive)
	if err != nil {
		return nil, err
	}
	rs := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: spec.Fingerprint(sc.Days, sc.Shards),
		Shards:      sc.Shards,
		StreamSetup: h.wrapSetup(setup),
		Chunk:       sc.Chunk,
		Spill:       dataset.SpillOptions{Dir: spillDir, MemBudget: sc.MemBudget},
		OnDayHealth: func(day simtime.Day, hl *scan.SweepHealth) {
			res.health = append(res.health, hl)
		},
	}
	sink := func(day simtime.Day, sw *dataset.SpillWriter) error {
		h.mu.Lock()
		h.closeChunk(time.Now())
		h.mu.Unlock()
		res.spillRuns += sw.Runs()
		res.spillBytes += dirBytes(spillDir, "")
		sp := rec.start("dataset", "dataset.section", h.day, 0)
		t0 := time.Now()
		err := aw.Section(sw)
		res.sinkTime += time.Since(t0)
		rec.end(sp)
		rec.end(h.day)
		res.dayLag.add(time.Since(h.dayStart))
		res.dayWall += time.Since(h.dayStart)
		return err
	}

	cpu0, t0 := cpuSeconds(), time.Now()
	if err := rs.RunStream(ctx, sc.Days, sink); err != nil {
		aw.Abort()
		return nil, err
	}
	sp := rec.start("dataset", "dataset.archive_close", h.pass, 0)
	tc := time.Now()
	if err := aw.Close(); err != nil {
		return nil, err
	}
	res.closeTime = time.Since(tc)
	rec.end(sp)
	res.wall, res.cpu = time.Since(t0), cpuSeconds()-cpu0

	if res.digest, err = fileSHA256(archive); err != nil {
		return nil, err
	}
	res.cpFiles = countFiles(cpDir, "-chunk-")
	res.cpBytes = dirBytes(cpDir, "")
	for _, hl := range res.health {
		res.domainDays += int64(hl.Targets)
		res.failed += int64(len(hl.Failures) + len(hl.SkippedUnknownTLD))
		if !hl.Balanced() {
			res.unbalanced++
		}
		res.stackTotals = res.stackTotals.Add(hl.Exchange)
	}
	if h.memnet != nil {
		res.memnetN, res.memnetBusy = h.memnet.n.Load(), time.Duration(h.memnet.busy.Load())
		res.attemptBusy = time.Duration(h.attempts.busy.Load())
	}
	return res, nil
}

// sweepWorkload runs passes until the time budget is spent (at least
// two), then, when tracing, one extra traced pass.
func sweepWorkload(cfg runConfig, sc sweepConfig, name string) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	sw, err := setupWorld(cfg, sc, rec)
	if err != nil {
		return nil, err
	}
	defer sw.world.Close()
	ctx := context.Background()

	var passes []*passResult
	win := beginWindow()
	deadline := time.Now().Add(time.Duration(cfg.Seconds * float64(time.Second)))
	for len(passes) < 2 || time.Now().Before(deadline) {
		p, err := runPass(ctx, cfg, sc, sw.world, len(passes), nil, 0)
		if err != nil {
			return nil, err
		}
		cfg.Logf("%s pass %d: %d domain-days in %.2fs (%.0f/s), cpu %.2fs, %d failed, sha %s",
			name, len(passes)+1, p.domainDays, p.wall.Seconds(), float64(p.domainDays)/p.wall.Seconds(), p.cpu, p.failed, p.digest[:12])
		passes = append(passes, p)
	}
	win.stop()

	// Oracles: every pass archives the same bytes, which match the pinned
	// digest for this seed when one is pinned, and every day's health
	// ledger balances.
	want, pinned := pinnedDigest(name, cfg.Seed)
	if !pinned {
		want = passes[0].digest
	}
	check := func(p *passResult, label string) {
		o.Attempted += p.domainDays
		o.Failed += p.failed
		if p.digest != want {
			o.fail(cfg.Logf, "%s %s archive sha256 %s, want %s (pinned=%v)", name, label, p.digest, want, pinned)
		}
		if p.unbalanced > 0 {
			o.fail(cfg.Logf, "%s %s: %d day health ledger(s) do not balance", name, label, p.unbalanced)
		}
	}
	var tput, cpu, lag []float64
	cycles, dayLag := &latencies{}, &latencies{}
	for i, p := range passes {
		check(p, fmt.Sprintf("pass %d", i+1))
		tput = append(tput, float64(p.domainDays)/p.wall.Seconds())
		cpu = append(cpu, cpuPerMillion(p.cpu, p.domainDays))
		cycles.addAll(&p.chunkCycle)
		dayLag.addAll(&p.dayLag)
	}
	for _, v := range dayLag.v {
		lag = append(lag, v/1e6)
	}
	cs := cycles.summarize(time.Microsecond)
	o.E2E.set("setup_s", median(sw.setupSamples))
	o.E2E.set("peak_heap_mb", float64(win.Peak)/1e6)
	o.E2E.set("ok_frac", 1-ratio(float64(o.Failed), float64(o.Attempted)))
	o.E2E.set("throughput_per_s", median(tput))
	o.E2E.set("cpu_us_per_op", median(cpu))
	o.E2E.set("p50_us", cs.P50)
	o.E2E.set("lag_ms", median(lag))
	o.Detail["sweep_domain_days_per_s"] = median(tput)
	o.Detail["sweep_cpu_s_per_mdd"] = median(cpu)
	o.Detail["failed_frac"] = ratio(float64(o.Failed), float64(o.Attempted))
	o.Detail["peak_heap_over_baseline_mb"] = float64(win.Peak-min(win.Peak, win.Baseline)) / 1e6
	o.Detail["passes"] = len(passes)
	o.Detail["domain_days_per_pass"] = passes[0].domainDays
	o.Detail["chunk_cycle_us"] = cs
	o.Detail["archive_sha256"] = passes[0].digest
	o.Detail["digest_pinned"] = pinned
	o.Detail["config"] = sc

	if !cfg.Trace {
		return o, nil
	}
	tw := beginWindow()
	tp, err := runPass(ctx, cfg, sc, sw.world, len(passes), rec, 0)
	if err != nil {
		return nil, err
	}
	tw.stop()
	check(tp, "traced pass")
	sweepLayers(o, sw, tp, tw, rec.snapshot())
	traced := float64(tp.domainDays) / tp.wall.Seconds()
	o.Layers.set("trace.overhead_pct", 100*(median(tput)-traced)/median(tput))
	return o, nil
}

// sweepLayers fills the per-layer metrics from the traced pass.
func sweepLayers(o *outcome, sw *sweepWorld, p *passResult, w *procWindow, spans []span) {
	m := o.Layers
	m.set("tldsim.build_s", median(sw.buildS))
	m.set("colstore.save_s", median(sw.saveS))
	m.set("colstore.load_s", median(sw.loadS))
	m.set("tldsim.prepare_s", p.prepare.Seconds())
	m.set("tldsim.prepare_share", ratio(p.prepare.Seconds(), p.dayWall.Seconds()))
	m.set("memnet.exchanges", float64(p.memnetN))
	m.set("memnet.busy_s", p.memnetBusy.Seconds())
	m.set("memnet.ns_per_exchange", ratio(float64(p.memnetBusy.Nanoseconds()), float64(p.memnetN)))
	cs := p.chunkScan.summarize(time.Millisecond)
	m.set("scan.chunk_ms_p50", cs.P50)
	m.set("scan.chunk_ms_tail", cs.Tail)
	c := p.stackTotals
	m.set("exchange.transport_per_target", ratio(float64(c.Transport.Exchanges), float64(p.domainDays)))
	m.set("exchange.retries", float64(c.Retry.Retries))
	m.set("exchange.retries_exhausted", float64(c.Retry.Failures))
	resweeps := 0
	for _, hl := range p.health {
		resweeps += hl.Resweeps
	}
	m.set("scan.resweeps", float64(resweeps))
	m.set("exchange.cache_hit_ratio", ratio(float64(c.Cache.Hits), float64(c.Cache.Hits+c.Cache.Misses)))
	m.set("exchange.dedup_hits", float64(c.Dedup.Hits))
	m.set("exchange.breaker_trips", float64(c.Health.Trips))
	m.set("exchange.fast_fails", float64(c.Health.FastFails))
	m.set("exchange.attempt_busy_s", p.attemptBusy.Seconds())
	m.set("scan.wait_share", 1-ratio(p.attemptBusy.Seconds(), p.workerTime.Seconds()))
	w.layerMetrics(m, p.domainDays)
	m.set("checkpoint.chunk_files", float64(p.cpFiles))
	m.set("checkpoint.bytes", float64(p.cpBytes))
	m.set("dataset.spill_runs", float64(p.spillRuns))
	m.set("dataset.spill_bytes", float64(p.spillBytes))
	m.set("dataset.section_s", p.sinkTime.Seconds())
	m.set("dataset.archive_close_s", p.closeTime.Seconds())
	setSelfTimes(m, spans)
	o.Detail["traced_pass_sha256"] = p.digest
	o.Detail["scan_chunk_ms"] = cs
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// dirBytes sums the sizes of regular files in dir whose names contain
// substr.
func dirBytes(dir, substr string) int64 {
	var n int64
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() && strings.Contains(e.Name(), substr) {
			n += info.Size()
		}
	}
	return n
}

// countFiles counts regular files in dir whose names contain substr.
func countFiles(dir, substr string) int {
	n := 0
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Type().IsRegular() && strings.Contains(e.Name(), substr) {
			n++
		}
	}
	return n
}
