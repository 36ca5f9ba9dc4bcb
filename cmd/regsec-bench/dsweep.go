package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/simtime"
)

// dsweepBenchConfig parameterizes the distributed-sweep benchmark.
type dsweepBenchConfig struct {
	ScaleDivisor float64
	Seed         int64
	Sample       int
	Shards       int
	OutPath      string
}

// dsweepFleet is one fleet-size measurement: the same plan drained by N
// in-process workers over a shared checkpoint directory.
type dsweepFleet struct {
	Workers    int     `json:"workers"`
	WallMillis float64 `json:"wall_millis"`
	UnitsDone  int     `json:"units_done"`
	Releases   int     `json:"releases"`
	Duplicates int     `json:"duplicates"`
}

// dsweepBaseline is the BENCH_dsweep.json schema: wall-clock scaling of
// the coordinator/worker topology across fleet sizes, plus a chaos drill
// (a worker killed mid-shard) that must still converge byte-identically.
type dsweepBaseline struct {
	Schema       string  `json:"schema"`
	ScaleDivisor float64 `json:"scale_divisor"`
	Seed         int64   `json:"seed"`
	Sample       int     `json:"sample"`
	Days         int     `json:"days"`
	Shards       int     `json:"shards"`

	Fleets []dsweepFleet `json:"fleets"`
	// ByteIdentical records that every fleet size produced the same merged
	// archive, byte for byte.
	ByteIdentical bool `json:"byte_identical"`

	// Chaos drill: one of two workers is killed before its first durable
	// write; the sweep must finish anyway via re-lease.
	ChaosReleases      int  `json:"chaos_releases"`
	ChaosByteIdentical bool `json:"chaos_byte_identical"`
}

const dsweepBaselineSchema = "regsec-bench-dsweep/1"

// runDsweepBench measures the distributed sweep at fleet sizes 1, 2 and 4,
// then runs the chaos drill. Exit 1 when any fleet or the chaos run
// diverges from the fleet-of-one archive — byte-identity is the product
// contract, so the benchmark gates on it.
func runDsweepBench(cfg dsweepBenchConfig) int {
	spec := &dsweep.WorldSpec{
		ScaleDiv: cfg.ScaleDivisor, Seed: cfg.Seed, Sample: cfg.Sample, Workers: 4,
	}
	days := []simtime.Day{simtime.Date(2016, 6, 1), simtime.End}
	plan := spec.PlanFor(days, cfg.Shards)
	fmt.Fprintf(os.Stderr, "dsweep bench: %d units (%d day(s) × %d shard(s)), sample %d\n",
		plan.Units(), len(plan.Days), plan.Shards, cfg.Sample)

	// Each worker builds its own world and exchange stack from the spec,
	// exactly as a separate regsec-scan -worker process would. The world
	// builds happen outside the timed region: the baseline tracks sweep
	// scaling, not startup cost.
	runFleet := func(n int, chaos map[string]*dsweep.Script, ttl time.Duration) (string, *dsweep.Result, time.Duration, error) {
		dir, err := os.MkdirTemp("", "dsweep-bench-*")
		if err != nil {
			return "", nil, 0, err
		}
		defer os.RemoveAll(dir)
		store, err := checkpoint.Open(dir)
		if err != nil {
			return "", nil, 0, err
		}
		workers := make([]dsweep.WorkerSpec, n)
		for i := range workers {
			name := fmt.Sprintf("w%d", i+1)
			setup, err := spec.BuildStream(nil, 0, nil)
			if err != nil {
				return "", nil, 0, err
			}
			workers[i] = dsweep.WorkerSpec{Name: name, StreamSetup: setup, Chaos: chaos[name]}
		}
		start := time.Now()
		merged, res, err := dsweep.RunLocal(context.Background(), dsweep.LocalConfig{
			Plan: plan, Store: store, LeaseTTL: ttl, Workers: workers,
		})
		wall := time.Since(start)
		if err != nil {
			return "", res, wall, err
		}
		var b strings.Builder
		if err := merged.WriteArchive(&b); err != nil {
			return "", res, wall, err
		}
		return b.String(), res, wall, nil
	}

	baseline := &dsweepBaseline{
		Schema:       dsweepBaselineSchema,
		ScaleDivisor: cfg.ScaleDivisor,
		Seed:         cfg.Seed,
		Sample:       cfg.Sample,
		Days:         len(days),
		Shards:       cfg.Shards,
	}
	var reference string
	baseline.ByteIdentical = true
	for _, n := range []int{1, 2, 4} {
		// A 2s lease keeps the GrantWait retry cadence (TTL/8) short, so
		// the tail — workers idling while the last leases finish — reflects
		// the topology rather than the default 30s production TTL.
		archive, res, wall, err := runFleet(n, nil, 2*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if reference == "" {
			reference = archive
		} else if archive != reference {
			baseline.ByteIdentical = false
			fmt.Fprintf(os.Stderr, "dsweep bench: fleet of %d DIVERGED from the fleet-of-one archive\n", n)
		}
		baseline.Fleets = append(baseline.Fleets, dsweepFleet{
			Workers:    n,
			WallMillis: float64(wall.Microseconds()) / 1000,
			UnitsDone:  res.Stats.Done,
			Releases:   res.Stats.Releases,
			Duplicates: res.Stats.Duplicates,
		})
		fmt.Fprintf(os.Stderr, "dsweep fleet %d: %v wall, %d units, %d re-leased, %d duplicate\n",
			n, wall.Round(time.Millisecond), res.Stats.Done, res.Stats.Releases, res.Stats.Duplicates)
	}

	// Chaos drill: w1 dies before its first durable write; w2 must pick up
	// the expired lease and the archive must not change by a byte.
	chaos := map[string]*dsweep.Script{
		"w1": dsweep.NewScript(dsweep.Event{Claim: 1, Act: dsweep.ActKillBeforeWrite}),
	}
	archive, res, _, err := runFleet(2, chaos, 250*time.Millisecond)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	baseline.ChaosReleases = res.Stats.Releases
	baseline.ChaosByteIdentical = archive == reference
	if !baseline.ChaosByteIdentical {
		fmt.Fprintln(os.Stderr, "dsweep bench: chaos run DIVERGED from the clean archive")
	}
	fmt.Fprintf(os.Stderr, "dsweep chaos: %d re-leased after mid-shard kill, byte-identical=%v\n",
		res.Stats.Releases, baseline.ChaosByteIdentical)

	data, err := json.MarshalIndent(baseline, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := os.WriteFile(cfg.OutPath, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", cfg.OutPath)

	if !baseline.ByteIdentical || !baseline.ChaosByteIdentical {
		return 1
	}
	return 0
}
