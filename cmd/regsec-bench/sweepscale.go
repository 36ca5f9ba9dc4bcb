package main

// The sweep-scale section: how the sweep behaves as the per-day target
// count approaches full-.com size. For each population divisor it runs
// the identical sweep twice through ResumableSweep.RunStream — once with one
// chunk per shard (Chunk 0: the whole day's DNS materialized at once) and
// once chunked (-sweepscale-chunk targets at a time) — both spilling to
// disk past the memory budget and writing archive sections by k-way
// merge, while a sampler goroutine tracks the peak live heap over the
// world-build baseline. The two archives must match byte for byte, and
// the chunked peak must stay under an absolute bound: half the peak the
// retired whole-day pipeline committed in BENCH_sweepscale.json. That
// bound is the point of chunking, so the benchmark gates on it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

type sweepscaleBenchConfig struct {
	Seed      int64
	Divisors  []float64
	Sample    int
	Chunk     int
	MemBudget int64
	OutPath   string
}

// sweepscaleEntry is one divisor's paired measurement.
type sweepscaleEntry struct {
	ScaleDivisor float64 `json:"scale_divisor"`
	Sample       int     `json:"sample"`
	Days         int     `json:"days"`
	Chunk        int     `json:"chunk"`

	// Whole* measure the one-chunk-per-shard arm (Chunk 0).
	WholeWallMs    float64 `json:"whole_wall_ms"`
	WholePeakBytes uint64  `json:"whole_peak_bytes"`

	// Stream* measure the chunked arm.
	StreamWallMs    float64 `json:"stream_wall_ms"`
	StreamPeakBytes uint64  `json:"stream_peak_bytes"`

	// PeakRatio is chunked/one-chunk-per-shard peak heap over the shared
	// world baseline; below 1 means chunking was cheaper.
	PeakRatio     float64 `json:"peak_ratio"`
	ByteIdentical bool    `json:"byte_identical"`
}

type sweepscaleBaseline struct {
	Schema         string            `json:"schema"`
	Seed           int64             `json:"seed"`
	GoMaxProcs     int               `json:"gomaxprocs"`
	MemBudgetBytes int64             `json:"mem_budget_bytes"`
	Entries        []sweepscaleEntry `json:"entries"`
}

// Schema 2: both arms run ResumableSweep.RunStream; in schema 1 the Whole*
// fields measured the retired whole-day pipeline.
const sweepscaleBaselineSchema = "regsec-bench-sweepscale/2"

// sweepscalePeakBound is the gate on the chunked arm's peak heap, per
// divisor: half the whole-day pipeline's peak as committed in
// BENCH_sweepscale.json (seed 1, 120,000 targets × 2 days, GOMAXPROCS 1).
// It applies at the committed sample size; other divisors and sample
// sizes have no committed baseline and are reported ungated.
var sweepscalePeakBound = map[float64]uint64{
	400: 126_022_488,
	40:  125_405_380,
	4:   183_917_128,
}

// sweepscaleBoundSample is the per-day target count the bounds were
// measured at.
const sweepscaleBoundSample = 120000

// liveHeap reads the bytes occupied by objects the last GC mark proved
// live — unlike HeapAlloc it excludes not-yet-collected garbage, so the
// number reflects what the pipeline actually holds, not allocation churn.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapWatch samples the live heap in the background and keeps the peak.
// The metric updates at each GC mark; the scan's allocation rate keeps
// marks frequent, so the sampler sees every growth step.
type heapWatch struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatch {
	w := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				if v := liveHeap(); v > w.peak {
					w.peak = v
				}
			}
		}
	}()
	return w
}

// Peak stops the sampler, forces a final mark so end-of-run state is
// counted, and returns the peak live heap over the baseline.
func (w *heapWatch) Peak(baseline uint64) uint64 {
	close(w.stop)
	<-w.done
	runtime.GC()
	if v := liveHeap(); v > w.peak {
		w.peak = v
	}
	if w.peak <= baseline {
		return 0
	}
	return w.peak - baseline
}

// heapBaseline collects garbage and reads the settled live heap.
func heapBaseline() uint64 {
	runtime.GC()
	return liveHeap()
}

func runSweepscaleBench(cfg sweepscaleBenchConfig) int {
	tmpDir, err := os.MkdirTemp("", "regsec-sweepscale-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmpDir)

	// A tighter GC makes marks (and so live-heap metric updates) more
	// frequent, giving the peak sampler finer resolution on growth steps.
	defer debug.SetGCPercent(debug.SetGCPercent(50))

	days := []simtime.Day{simtime.Date(2016, 6, 1), simtime.End}
	baseline := &sweepscaleBaseline{
		Schema:         sweepscaleBaselineSchema,
		Seed:           cfg.Seed,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
		MemBudgetBytes: cfg.MemBudget,
	}
	ok := true
	for _, div := range cfg.Divisors {
		spec := &dsweep.WorldSpec{
			ScaleDiv: div, Seed: cfg.Seed, Sample: cfg.Sample,
			Workers: runtime.GOMAXPROCS(0), Chunk: cfg.Chunk,
		}
		entry := sweepscaleEntry{
			ScaleDivisor: div, Sample: cfg.Sample, Days: len(days), Chunk: cfg.Chunk,
		}

		// Build once, save, and mmap-load — the production -world-cache
		// lifecycle. The loaded world is file-backed, so neither arm
		// carries the population as resident heap and the peak measures the
		// sweep pipeline alone. (An in-heap world would also slow GC marks
		// to the point where mark-window churn, counted live by
		// allocate-black, drowns the chunked pipeline's real footprint.)
		worldPath := filepath.Join(tmpDir, fmt.Sprintf("world-%.0f.rscw", div))
		built, err := tldsim.Build(tldsim.WorldConfig{Scale: 1 / div, Seed: cfg.Seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := built.Save(worldPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		built = nil
		runtime.GC()
		world, _, err := tldsim.LoadWorld(worldPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}

		// The same spec and world through RunStream, first with one
		// chunk per shard, then chunked.
		setup, err := spec.BuildStreamWith(world, nil, 0, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		wholePath := filepath.Join(tmpDir, fmt.Sprintf("whole-%.0f.tsv", div))
		streamPath := filepath.Join(tmpDir, fmt.Sprintf("stream-%.0f.tsv", div))
		spill := dataset.SpillOptions{Dir: tmpDir, MemBudget: cfg.MemBudget}
		if entry.WholeWallMs, entry.WholePeakBytes, err = sweepscaleArm(setup, 0, spill, days, wholePath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "sweepscale 1/%.0f: one chunk per shard, %d targets × %d days in %.0f ms, peak %.1f MB\n",
			div, cfg.Sample, len(days), entry.WholeWallMs, float64(entry.WholePeakBytes)/1e6)
		if entry.StreamWallMs, entry.StreamPeakBytes, err = sweepscaleArm(setup, cfg.Chunk, spill, days, streamPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		setup = nil
		fmt.Fprintf(os.Stderr, "sweepscale 1/%.0f: chunk %d (budget %.0f MB) in %.0f ms, peak %.1f MB\n",
			div, cfg.Chunk, float64(cfg.MemBudget)/1e6, entry.StreamWallMs, float64(entry.StreamPeakBytes)/1e6)

		whole, err := os.ReadFile(wholePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		streamed, err := os.ReadFile(streamPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		world.Close()
		entry.ByteIdentical = bytes.Equal(whole, streamed)
		if !entry.ByteIdentical {
			fmt.Fprintf(os.Stderr, "sweepscale 1/%.0f: chunked archive DIVERGED from the one-chunk-per-shard archive\n", div)
			ok = false
		}
		if entry.WholePeakBytes > 0 {
			entry.PeakRatio = float64(entry.StreamPeakBytes) / float64(entry.WholePeakBytes)
		}
		if bound, gated := sweepscalePeakBound[div]; gated && cfg.Sample == sweepscaleBoundSample {
			if entry.StreamPeakBytes >= bound {
				fmt.Fprintf(os.Stderr, "sweepscale 1/%.0f: chunked peak %d B, want < %d B (half the committed whole-day peak)\n",
					div, entry.StreamPeakBytes, bound)
				ok = false
			}
		} else {
			fmt.Fprintf(os.Stderr, "sweepscale 1/%.0f: no committed peak bound for %d targets, not gated\n", div, cfg.Sample)
		}
		baseline.Entries = append(baseline.Entries, entry)
	}

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
	if !ok {
		return 1
	}
	return 0
}

// sweepscaleArm runs one measured sweep through RunStream into an archive
// at path, returning its wall time and peak live heap over the settled
// baseline.
func sweepscaleArm(setup scan.StreamDaySetup, chunk int, spill dataset.SpillOptions, days []simtime.Day, path string) (float64, uint64, error) {
	base := heapBaseline()
	hw := watchHeap()
	start := time.Now()
	rs := &scan.ResumableSweep{StreamSetup: setup, Shards: 1, Chunk: chunk, Spill: spill}
	aw, err := dataset.NewArchiveWriter(path)
	if err != nil {
		hw.Peak(base)
		return 0, 0, err
	}
	err = rs.RunStream(context.Background(), days, func(day simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	})
	if err == nil {
		err = aw.Close()
	} else {
		aw.Abort()
	}
	wall := ms(start)
	return wall, hw.Peak(base), err
}
