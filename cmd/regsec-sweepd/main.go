// Command regsec-sweepd is the distributed-sweep coordinator daemon. It
// owns one sweep plan — days × shards over a deterministic world sample —
// and serves the lease/heartbeat/complete control plane over HTTP to
// regsec-scan processes running in -worker mode. Workers flush
// checksum-trailered shard archives into the shared -checkpoint-dir; the
// daemon leases work units with deadlines, re-leases units whose worker
// died or stalled, settles duplicate completions by checksum, and — once
// every unit is complete — writes the CRC-verified merged archive in
// canonical (TLD, domain) order, which is byte-identical to a
// single-process `regsec-scan` of the same world, sample, days and faults
// at any -shards or -chunk.
//
// Usage:
//
//	regsec-sweepd -checkpoint-dir state/ -o archive.tsv
//	              [-listen 127.0.0.1:7353] [-lease-ttl 30s] [-resume]
//	              [-days 2016-06-01,2016-12-31] [-sample 1000] [-shards 4]
//	              [-scale 2000] [-seed 1] [-workers 16] [-retries 3] [-resweeps 2]
//	              [-cache] [-dedup] [-fault-frac 0] [-fault-loss 0.2] [-fault-seed 1]
//	              [-chunk 4096]
//
// Then, on any machine sharing the checkpoint directory:
//
//	regsec-scan -worker http://coordinator:7353 -checkpoint-dir state/ [-name w1]
//
// The daemon's own death is recoverable: lease and completion state is
// persisted atomically after every change, so restarting it with -resume
// adopts all completed units and re-leases the rest. SIGINT/SIGTERM stop
// the daemon cleanly with state intact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/httpx"
	"securepki.org/registrarsec/internal/simtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	cpDir := flag.String("checkpoint-dir", "", "shared checkpoint directory workers flush shards into (required)")
	outPath := flag.String("o", "", "write the merged checksummed TSV archive here once the plan completes (required)")
	listen := flag.String("listen", "127.0.0.1:7353", "control-plane listen address")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "lease deadline budget: a worker must complete or heartbeat within it")
	resume := flag.Bool("resume", false, "adopt persisted coordinator state from a previous run in -checkpoint-dir")
	daysStr := flag.String("days", "2016-12-31", "comma-separated measurement days (YYYY-MM-DD)")
	sample := flag.Int("sample", 1000, "domains to sample from the world")
	shards := flag.Int("shards", 4, "work units per day")
	scaleDiv := flag.Float64("scale", 2000, "population divisor (2000 → .com has ~59k domains)")
	seed := flag.Int64("seed", 1, "world seed")
	workers := flag.Int("workers", 16, "per-worker internal scan concurrency")
	retries := flag.Int("retries", 3, "per-query attempt budget")
	resweeps := flag.Int("resweeps", 2, "re-sweep passes over failed targets (-1 disables)")
	useCache := flag.Bool("cache", false, "enable the response cache in every worker's exchange stack")
	useDedup := flag.Bool("dedup", false, "coalesce concurrent identical queries in every worker's exchange stack")
	faultFrac := flag.Float64("fault-frac", 0, "fraction of DNS operators made faulty, identically on every worker")
	faultLoss := flag.Float64("fault-loss", 0.2, "packet-loss probability on faulty operators")
	faultSeed := flag.Int64("fault-seed", 1, "fault schedule seed")
	chunk := flag.Int("chunk", 0, "targets each worker scans and durably flushes at a time (0 = one chunk per shard)")
	flag.Parse()

	if *cpDir == "" || *outPath == "" {
		fmt.Fprintln(os.Stderr, "regsec-sweepd requires -checkpoint-dir and -o")
		return 2
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

	spec := &dsweep.WorldSpec{
		ScaleDiv: *scaleDiv, Seed: *seed, Sample: *sample, Workers: *workers,
		Retries: *retries, Resweeps: *resweeps, Cache: *useCache, Dedup: *useDedup,
		FaultFrac: *faultFrac, FaultLoss: *faultLoss, FaultSeed: *faultSeed,
		Chunk: *chunk,
	}
	plan := spec.PlanFor(days, *shards)

	store, err := checkpoint.Open(*cpDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if store.Exists() && !*resume {
		// Exists() reports single-process checkpoint state; coordinator
		// state is separate but the refusal semantics are the same.
		fmt.Fprintf(os.Stderr, "checkpoint state already present in %s: pass -resume to continue it, or remove the directory to start over\n", *cpDir)
		return 2
	}

	eventf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	coord, err := dsweep.NewCoordinator(dsweep.CoordinatorConfig{
		Plan: plan, Store: store, LeaseTTL: *leaseTTL, OnEvent: eventf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if owner, pid, ok := store.LockedBy(); ok {
			fmt.Fprintf(os.Stderr, "(directory is held by %s, pid %d)\n", owner, pid)
		}
		return 1
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := httpx.NewServer(dsweep.NewHandler(coord))
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "coordinating %d units (%d day(s) × %d shard(s)) on http://%s — workers: regsec-scan -worker http://%s -checkpoint-dir %s\n",
		plan.Units(), len(plan.Days), plan.Shards, ln.Addr(), ln.Addr(), *cpDir)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	start := time.Now()
	select {
	case <-ctx.Done():
		srv.Shutdown(context.Background())
		s := coord.Stats()
		fmt.Fprintf(os.Stderr, "interrupted with %d/%d units done; state saved in %s — restart with -resume to continue\n",
			s.Done, s.Units, *cpDir)
		return 130
	case <-coord.Done():
	}
	srv.Shutdown(context.Background())

	merged, err := coord.Merge()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := merged.WriteArchiveFile(*outPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stats := coord.Stats()
	byDay, byWorker := coord.Health()
	for _, day := range plan.Days {
		if h := byDay[day]; h != nil {
			fmt.Fprintln(os.Stderr, h)
		}
	}
	names := make([]string, 0, len(byWorker))
	for name := range byWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := byWorker[name]
		fmt.Fprintf(os.Stderr, "worker %s: %d/%d measured, %d failed\n", name, h.Measured, h.Targets, len(h.Failures))
	}
	fmt.Fprintf(os.Stderr, "sweep complete in %v: %d units (%d recovered, %d re-leased, %d duplicate, %d divergent, %d rejected); archive %s\n",
		time.Since(start).Round(time.Millisecond), stats.Units, stats.Recovered, stats.Releases, stats.Duplicates, stats.Divergent, stats.Rejected, *outPath)

	// The archive is durable; the shards and lease state have served
	// their purpose.
	if err := coord.Clear(); err != nil {
		fmt.Fprintf(os.Stderr, "clearing checkpoint: %v\n", err)
	}
	return 0
}
