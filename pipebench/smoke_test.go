package main

import (
	"testing"
	"time"
)

// Tiny-size runs of every workload, traced, with their oracles.

func smokeConfig(t *testing.T) runConfig {
	return runConfig{Seed: 1, Seconds: 0.5, Trace: true, Dir: t.TempDir(), Logf: t.Logf}
}

func checkSmoke(t *testing.T, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", o.Correct, o.Attempted, o.Failed)
	}
	if _, err := render(o, false); err != nil {
		t.Fatal(err)
	}
	if _, err := render(o, true); err != nil {
		t.Fatal(err)
	}
}

// tinySweepDigest pins the tiny sweep's archive for seed 1. The lossy
// sweep must archive the same bytes: its retries recover every loss.
const tinySweepDigest = "5a82aab6a581d99f1853c1d5aa054485a09dcda7f4fbabead8ed63b4b75f27be"

func tinySweep(lossy bool) sweepConfig {
	c := sweepConfig{
		Divisor: 4000, Sample: 300, Days: sweepDays, Chunk: 64, Shards: 2,
		MemBudget: 8 << 10, SetupReps: 1, Retries: 3, Resweeps: 2,
	}
	if lossy {
		c.FaultFrac, c.FaultLoss, c.FaultSeed, c.Cache, c.Dedup = 1, 0.2, 1, true, true
	}
	return c
}

func TestSmokeSweep(t *testing.T) {
	for _, lossy := range []bool{false, true} {
		o, err := sweepWorkload(smokeConfig(t), tinySweep(lossy), "tiny")
		checkSmoke(t, o, err)
		got := o.Detail["archive_sha256"]
		if got != tinySweepDigest || o.Detail["traced_pass_sha256"] != got {
			t.Errorf("lossy=%v: archive sha256 %v (traced %v), want %s", lossy, got, o.Detail["traced_pass_sha256"], tinySweepDigest)
		}
		m := o.Layers
		if m["memnet.exchanges"] == 0 || m["tldsim.prepare_s"] == 0 || m["dataset.spill_runs"] == 0 || m["checkpoint.chunk_files"] == 0 {
			t.Errorf("lossy=%v: idle sweep layers: %v", lossy, m)
		}
		if lossy && m["exchange.retries"] == 0 {
			t.Error("lossy sweep made no retries")
		}
		if !lossy && m["exchange.retries"] != 0 {
			t.Error("clean sweep retried")
		}
	}
}

func TestSmokeServe(t *testing.T) {
	sc := serveConfig{
		Divisor: 4000, Sample: 200, WriteSet: 8, MissFrac: 0.2, SetupReps: 1,
		RefRate: 1000, Ladder: []int{1000, 2000}, StepWindow: 100 * time.Millisecond, RefShare: 0.5,
		P99Limit: 50 * time.Millisecond, MaxLoss: 0.01, MaxLate: 50 * time.Millisecond, WriteRate: 20,
	}
	o, err := serveWorkload(smokeConfig(t), sc)
	checkSmoke(t, o, err)
	sv := o.Detail["serving_layers"].(metricSet)
	if o.Detail["ds_writes"].(int64) == 0 || sv["zone.stale_answers"] != 0 {
		t.Errorf("writes %v, stale %v", o.Detail["ds_writes"], sv["zone.stale_answers"])
	}
	if o.E2E["throughput_per_s"] == 0 || sv["dnsserver.cache_fills"] == 0 {
		t.Errorf("e2e %v serving layers %v", o.E2E, sv)
	}
}

func TestSmokeObservatory(t *testing.T) {
	oc := obsConfig{
		Divisor: 40000, History: 4, StepDays: 30, AppendEvery: 100 * time.Millisecond,
		ReadRate: 100, SetupReps: 1,
		Poll: 2 * time.Millisecond, Refresh: 20 * time.Millisecond,
		PostPublish: 50 * time.Millisecond, TracedShare: 1, MaxLate: time.Second,
	}
	o, err := obsWorkload(smokeConfig(t), oc)
	checkSmoke(t, o, err)
	if o.Detail["table1_matches_oracle"] != true {
		t.Error("table1 oracle did not run or did not match")
	}
	api := o.Detail["api_layers"].(metricSet)
	if o.E2E["throughput_per_s"] == 0 || api["apiserv.admitted"] == 0 || api["colstore.world_file_bytes"] == 0 {
		t.Errorf("idle observatory: e2e %v api layers %v", o.E2E, api)
	}
}
