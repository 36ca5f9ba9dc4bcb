// Command regsec-scan materializes a day of the simulated ecosystem as
// real, signed DNS and sweeps it with the OpenINTEL-style scan engine,
// writing one TSV record per domain — the raw dataset every analysis is
// built from.
//
// Usage:
//
//	regsec-scan [-scale 2000] [-seed 1] [-days 2016-06-01,2016-12-31] [-sample 1000] [-workers 16] [-o archive.tsv]
//	            [-retries 3] [-resweeps 2] [-fault-frac 0.5] [-fault-loss 0.2] [-fault-seed 1]
//	            [-cache] [-dedup] [-world-cache worlds/]
//	            [-checkpoint-dir state/] [-resume] [-shards 4]
//	            [-chunk 4096] [-mem-budget 256] [-spill-dir /scratch]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
//	regsec-scan -worker http://coordinator:7353 -checkpoint-dir state/
//	            [-name w1] [-fault-profile vantage.txt] [-vantage-seed 1]
//
// The second form joins a distributed sweep as a worker: the sweep plan
// (days, sample, world, sharding) comes from a regsec-sweepd coordinator,
// so the plan-shaping flags of the first form are rejected. The worker
// claims (day, shard) leases, scans them through its own exchange stack,
// flushes checksummed shard archives into the shared -checkpoint-dir, and
// heartbeats while working; killing it at any instant is safe — the
// coordinator re-leases its unit. -fault-profile overlays this worker's
// own vantage-point fault rules (see faultnet.ParseProfile) without
// affecting the sweep plan.
//
// With -o the snapshots are written as a checksummed TSV archive (each
// day's section carries a length+CRC trailer) that regsec-report -archive
// can analyze and salvage; otherwise records go to stdout. The -fault-*
// flags wrap the materialized network in the fault injector, making a
// configured fraction of DNS operators lossy — a resilience drill for the
// scan path; each day's sweep-health report goes to stderr.
//
// Every sweep runs through one streaming pipeline: targets come off a
// cursor in chunks of -chunk domains (0, the default, is one chunk per
// shard), each chunk's DNS is materialized (and signed) lazily, and each
// day's records flow through a spill-to-disk writer bounded by
// -mem-budget MiB of RAM (run files land in -spill-dir) into the archive
// in canonical (TLD, domain) order. The archive bytes depend only on the
// world, sample, days and faults — not on -shards or -chunk; peak memory
// scales with the chunk, not the day.
//
// Long sweeps are crash-safe when -checkpoint-dir is set: every completed
// chunk is durably checkpointed, and SIGINT/SIGTERM drains the in-flight
// chunk's workers and flushes the checkpoint before exiting. Re-running
// with -resume picks up from the last completed chunk — finished work is
// verified by checksum, not re-scanned — and the final archive is
// byte-identical to an uninterrupted run. The chunk size is part of the
// checkpoint fingerprint, so -resume with a different -chunk is refused.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/profdump"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("regsec-scan", flag.ExitOnError)
	scaleDiv := fs.Float64("scale", 2000, "population divisor (2000 → .com has ~59k domains)")
	seed := fs.Int64("seed", 1, "world seed")
	daysStr := fs.String("days", "2016-12-31", "comma-separated measurement days (YYYY-MM-DD)")
	sample := fs.Int("sample", 1000, "domains to materialize and scan")
	workers := fs.Int("workers", 16, "scan concurrency")
	outPath := fs.String("o", "", "write a checksummed TSV snapshot archive instead of stdout records")
	retries := fs.Int("retries", 3, "per-query attempt budget")
	resweeps := fs.Int("resweeps", 2, "re-sweep passes over failed targets (-1 disables)")
	faultFrac := fs.Float64("fault-frac", 0, "fraction of DNS operators made faulty (0 disables injection)")
	faultLoss := fs.Float64("fault-loss", 0.2, "packet-loss probability on faulty operators")
	faultSeed := fs.Int64("fault-seed", 1, "fault schedule seed")
	useCache := fs.Bool("cache", false, "enable the TTL-respecting response cache in the exchange stack")
	useDedup := fs.Bool("dedup", false, "coalesce concurrent identical queries in the exchange stack")
	worldCache := fs.String("world-cache", "", "directory caching built worlds keyed by (seed, scale, config): build once, load many")
	cpDir := fs.String("checkpoint-dir", "", "directory for durable sweep checkpoints (enables crash-safe resume)")
	resume := fs.Bool("resume", false, "continue from an existing checkpoint in -checkpoint-dir")
	shards := fs.Int("shards", 4, "checkpoint units per day (granularity of resume)")
	chunk := fs.Int("chunk", 0, "targets per materialize+scan+flush chunk (0 = one chunk per shard)")
	memBudget := fs.Int("mem-budget", 0, "MiB of records buffered per day before spilling sorted runs to disk (default 256)")
	spillDir := fs.String("spill-dir", "", "directory for spill run files (default: system temp dir)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	workerURL := fs.String("worker", "", "join a distributed sweep as a worker of the coordinator at this URL")
	workerName := fs.String("name", "", "worker identity (default hostname-pid); unique per sweep")
	faultProfile := fs.String("fault-profile", "", "vantage-point fault profile file for this worker (worker mode only)")
	vantageSeed := fs.Int64("vantage-seed", 1, "seed for the vantage-point fault schedule (worker mode only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Reject contradictory flag combinations before any work starts.
	set := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProfiles, err := profdump.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	if *workerURL != "" {
		return runWorker(*workerURL, *workerName, *cpDir, *faultProfile, *vantageSeed)
	}

	var days []simtime.Day
	for _, part := range strings.Split(*daysStr, ",") {
		day, err := simtime.Parse(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		days = append(days, day)
	}

	var cp *checkpoint.Store
	if *cpDir != "" {
		cp, err = checkpoint.Open(*cpDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if cp.Exists() && !*resume {
			fmt.Fprintf(os.Stderr, "checkpoint already present in %s: pass -resume to continue it, or remove the directory to start over\n", *cpDir)
			return 2
		}
		if !cp.Exists() && *resume {
			fmt.Fprintf(os.Stderr, "no checkpoint in %s; starting a fresh sweep\n", *cpDir)
		}
	}

	worldCfg := tldsim.WorldConfig{Scale: 1 / *scaleDiv, Seed: *seed}
	var world *tldsim.World
	if *worldCache != "" {
		fmt.Fprintf(os.Stderr, "world cache %s (scale 1/%.0f, seed %d, key %s)...\n",
			*worldCache, *scaleDiv, *seed, worldCfg.Fingerprint())
		world, err = tldsim.BuildCached(*worldCache, worldCfg)
	} else {
		fmt.Fprintf(os.Stderr, "building world (scale 1/%.0f, seed %d)...\n", *scaleDiv, *seed)
		world, err = tldsim.Build(worldCfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	src := world.SampleSource(*sample, *seed)

	// The fingerprint binds a checkpoint to everything that shapes the
	// sweep's output, so a stale or mismatched checkpoint is refused
	// instead of silently mixed into a different configuration. The chunk
	// size shapes the durable chunk files a resume trusts, so a positive
	// -chunk joins the fingerprint too: -resume under a different -chunk
	// is refused instead of fabricating a day out of incompatible pieces.
	fingerprint := fmt.Sprintf("scale=%g seed=%d days=%s sample=%d shards=%d faults=%g/%g/%d retries=%d resweeps=%d",
		*scaleDiv, *seed, *daysStr, *sample, *shards, *faultFrac, *faultLoss, *faultSeed, *retries, *resweeps)
	if *chunk > 0 {
		fingerprint += fmt.Sprintf(" chunk=%d", *chunk)
	}

	// SIGINT/SIGTERM cancel the sweep context: workers drain, the partial
	// chunk is discarded, and the checkpoint is flushed before we exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	var scanners []*scan.Scanner
	rs := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: fingerprint,
		Shards:      *shards,
		Chunk:       *chunk,
		Spill:       dataset.SpillOptions{Dir: *spillDir, MemBudget: int64(*memBudget) << 20},
		OnDayHealth: func(day simtime.Day, h *scan.SweepHealth) {
			fmt.Fprintln(os.Stderr, h)
		},
		OnEvent: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	rs.StreamSetup = func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		fmt.Fprintf(os.Stderr, "streaming %d domains at %s in %d shard(s), chunk %d (0 = one per shard)...\n", src.Len(), day, *shards, *chunk)
		sm := tldsim.NewStreamMaterializer(day, src)
		var mw []exchange.Middleware
		if *faultFrac > 0 {
			rules, faulty := tldsim.LossyOperatorsSource(src, *faultFrac, *faultLoss, *faultSeed)
			inj := faultnet.New(nil, *faultSeed, func() simtime.Day { return day }, rules...)
			mw = append(mw, inj.Middleware())
			fmt.Fprintf(os.Stderr, "injecting %.0f%% loss on %d operator(s)\n", *faultLoss*100, len(faulty))
		}
		var cacheOpts *exchange.CacheOptions
		if *useCache {
			cacheOpts = &exchange.CacheOptions{}
		}
		scanner, err := scan.New(scan.Config{
			Exchange:    sm,
			Middleware:  mw,
			Dedup:       *useDedup,
			Cache:       cacheOpts,
			TLDServers:  sm.TLDServers,
			Workers:     *workers,
			Clock:       func() simtime.Day { return day },
			Retry:       retry.Policy{MaxAttempts: *retries},
			MaxResweeps: *resweeps,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		scanners = append(scanners, scanner)
		prepare := func(ctx context.Context, lo, hi int) error {
			// Each chunk's materialization signs with fresh keys, so
			// answers cached from the previous chunk must not survive
			// into this one.
			if *useCache {
				scanner.Stack().FlushCache()
			}
			return sm.Prepare(ctx, lo, hi)
		}
		return scanner, src, prepare, nil
	}
	total, code := runStreamOut(ctx, rs, days, *outPath, cp, *cpDir)
	if code != 0 {
		return code
	}
	reportTotals(scanners, total, len(days), start)
	return 0
}

// printRecord writes one stdout TSV line.
func printRecord(r *dataset.Record) {
	class := r.Deployment().String()
	if r.Failed {
		class = "unmeasured(" + r.FailReason + ")"
	}
	fmt.Printf("%s\t%s\t%s\t%s\t%v\t%v\t%v\t%v\t%s\n",
		r.Domain, r.TLD, r.Operator, strings.Join(r.NSHosts, ","),
		r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid, class)
}

// reportTotals prints the sweep's closing stderr summary.
func reportTotals(scanners []*scan.Scanner, total, days int, start time.Time) {
	var queries int64
	var stackTotals exchange.Counters
	for _, s := range scanners {
		queries += s.Queries()
		stackTotals = stackTotals.Add(s.Stack().Counters())
	}
	fmt.Fprintf(os.Stderr, "scanned %d records across %d day(s) in %v (%d DNS queries)\n",
		total, days, time.Since(start).Round(time.Millisecond), queries)
	fmt.Fprintf(os.Stderr, "exchange stack: %s\n", stackTotals)
}

// runStreamOut drives the sweep and its output path: day
// sections flow straight from each day's spill writer into a streamed
// archive with -o, or through a sorted-record stdout printer without. It
// returns the record total and the process exit code.
func runStreamOut(ctx context.Context, rs *scan.ResumableSweep, days []simtime.Day, outPath string, cp *checkpoint.Store, cpDir string) (int, int) {
	total := 0
	var aw *dataset.ArchiveWriter
	var sink scan.DaySink
	if outPath != "" {
		var err error
		aw, err = dataset.NewArchiveWriter(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 0, 1
		}
		sink = func(day simtime.Day, sw *dataset.SpillWriter) error {
			total += sw.Len()
			return aw.Section(sw)
		}
	} else {
		fmt.Println("#domain\ttld\toperator\tns\tdnskey\trrsig\tds\tvalid\tclass")
		sink = func(day simtime.Day, sw *dataset.SpillWriter) error {
			total += sw.Len()
			return sw.EachSorted(func(r *dataset.Record) error {
				printRecord(r)
				return nil
			})
		}
	}
	if err := rs.RunStream(ctx, days, sink); err != nil {
		if aw != nil {
			aw.Abort()
		}
		if errors.Is(err, context.Canceled) && cp != nil {
			fmt.Fprintf(os.Stderr, "interrupted; checkpoint saved in %s — re-run with -resume to continue\n", cpDir)
			return total, 130
		}
		fmt.Fprintln(os.Stderr, err)
		return total, 1
	}
	if aw != nil {
		if err := aw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return total, 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d snapshot(s) to %s\n", len(days), outPath)
	}
	// The archive is safely on disk; the checkpoint has served its purpose.
	if cp != nil {
		if err := cp.Clear(); err != nil {
			fmt.Fprintf(os.Stderr, "clearing checkpoint: %v\n", err)
		}
	}
	return total, 0
}

// planFlags are the flags that shape a sweep's output. In worker mode the
// plan comes from the coordinator, so setting any of them locally would
// silently disagree with every other participant — reject instead.
var planFlags = []string{
	"scale", "seed", "days", "sample", "shards", "workers", "o", "retries",
	"resweeps", "cache", "dedup", "fault-frac", "fault-loss", "fault-seed",
	"resume", "world-cache", "chunk",
}

// workerOnlyFlags only have meaning when joining a coordinator.
var workerOnlyFlags = []string{"name", "fault-profile", "vantage-seed"}

// streamLocalFlags tune the local sweep's spill writer. They have no
// meaning in worker mode, where completed chunks go to the shared
// checkpoint directory instead of a local spill.
var streamLocalFlags = []string{"mem-budget", "spill-dir"}

// validateFlags rejects contradictory combinations of explicitly set
// flags with errors that say which flag to drop or where to set it.
func validateFlags(set map[string]bool) error {
	if set["worker"] {
		var bad []string
		for _, f := range planFlags {
			if set[f] {
				bad = append(bad, "-"+f)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("-worker mode takes the sweep plan from the coordinator: drop %s here and set them on regsec-sweepd instead",
				strings.Join(bad, ", "))
		}
		for _, f := range streamLocalFlags {
			if set[f] {
				return fmt.Errorf("-%s does not apply to -worker mode: workers flush chunks into the shared -checkpoint-dir, not a local spill", f)
			}
		}
		if !set["checkpoint-dir"] {
			return fmt.Errorf("-worker requires -checkpoint-dir: the shard store shared with the coordinator")
		}
		return nil
	}
	for _, f := range workerOnlyFlags {
		if set[f] {
			return fmt.Errorf("-%s only applies to -worker mode (pass -worker with the coordinator URL)", f)
		}
	}
	if set["resume"] && !set["checkpoint-dir"] {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	return nil
}

// runWorker joins a distributed sweep: fetch the plan, rebuild the world
// from its spec, and claim leases until the coordinator says done.
func runWorker(url, name, cpDir, profilePath string, vantageSeed int64) int {
	eventf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &dsweep.Client{Base: url}
	plan, err := client.FetchPlan(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if plan.Spec == nil {
		fmt.Fprintln(os.Stderr, "coordinator's plan carries no world spec; it was not started by regsec-sweepd")
		return 1
	}
	var vantage []faultnet.Rule
	if profilePath != "" {
		data, err := os.ReadFile(profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if vantage, err = faultnet.ParseProfile(string(data)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "vantage profile: %d fault rule(s) from %s\n", len(vantage), profilePath)
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "worker %s joining sweep %q (%d day(s) × %d shard(s))\n",
		name, plan.Fingerprint, len(plan.Days), plan.Shards)

	// Shards are scanned chunk by chunk (one chunk per shard when the
	// plan's chunk is 0) with each chunk durably flushed, so killing this
	// process mid-shard only costs the chunk in flight.
	cfg := dsweep.WorkerConfig{Name: name, Coord: client, OnEvent: eventf}
	cfg.StreamSetup, err = plan.Spec.BuildStream(vantage, vantageSeed, eventf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg.Store, err = checkpoint.Open(cpDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	w, err := dsweep.NewWorker(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := w.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "worker %s interrupted; its in-flight lease will expire and be re-leased\n", name)
			return 130
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "worker %s done: plan complete\n", name)
	return 0
}
