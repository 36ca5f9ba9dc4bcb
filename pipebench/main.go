// Command pipebench is the repository's pipeline benchmark. It runs one
// named workload against the real pipeline packages — world build and
// mmap load, streaming sweep, authoritative serving, the observatory
// daemon — checks the outputs with per-workload oracles, and prints one
// JSON result line.
//
// Usage (from the repository root; pipebench/run.sh builds and runs it):
//
//	pipebench --workload sweep --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the run adds one traced pass and the result carries the per-layer
// metrics. See README.md for the workloads, the metric map and what is
// deliberately not measured.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric, its unit and which direction is
// better.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the user-visible metrics every workload reports with
// --trace 0. README.md maps each onto the workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"throughput_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"p50_us", "us", "lower"},
	{"lag_ms", "ms", "lower"},
}

// perLayer are the per-layer metrics every workload reports with
// --trace 1; a layer the workload leaves idle reads 0. The figures only
// serve (dnsserver, zone) or observatory (apiserv, the read pacer) produce
// are not here: BENCHMARK.json declares neither workload, so each reports
// them in its details.
var perLayer = []metricDef{
	// world build, save, mmap load (set-up of the sweeps)
	{"tldsim.build_s", "s", "lower"},
	{"colstore.save_s", "s", "lower"},
	{"colstore.load_s", "s", "lower"},
	// lazy materialize/sign per chunk
	{"tldsim.prepare_s", "s", "lower"},
	{"tldsim.prepare_share", "ratio", "lower"},
	// in-memory exchange transport
	{"memnet.exchanges", "count", "lower"},
	{"memnet.busy_s", "s", "lower"},
	{"memnet.ns_per_exchange", "ns", "lower"},
	// scan chunks
	{"scan.chunk_ms_p50", "ms", "lower"},
	{"scan.chunk_ms_tail", "ms", "lower"},
	{"exchange.transport_per_target", "ratio", "lower"},
	// exchange stack and retry
	{"exchange.retries", "count", "lower"},
	{"exchange.retries_exhausted", "count", "lower"},
	{"scan.resweeps", "count", "lower"},
	{"exchange.cache_hit_ratio", "ratio", "higher"},
	{"exchange.dedup_hits", "count", "higher"},
	{"exchange.breaker_trips", "count", "lower"},
	{"exchange.fast_fails", "count", "lower"},
	{"exchange.attempt_busy_s", "s", "lower"},
	{"scan.wait_share", "ratio", "lower"},
	// process
	{"proc.cpu_s", "s", "lower"},
	{"proc.cpu_util", "ratio", "higher"},
	{"gc.cpu_share", "ratio", "lower"},
	{"gc.alloc_bytes_per_op", "B", "lower"},
	{"gc.cycles", "count", "lower"},
	{"gc.baseline_heap_mb", "MB", "lower"},
	// checkpoint and dataset
	{"checkpoint.chunk_files", "count", "lower"},
	{"checkpoint.bytes", "B", "lower"},
	{"dataset.spill_runs", "count", "lower"},
	{"dataset.spill_bytes", "B", "lower"},
	{"dataset.section_s", "s", "lower"},
	{"dataset.archive_close_s", "s", "lower"},
	// self time per layer, from the spans
	{"self_s.tldsim", "s", "lower"},
	{"self_s.colstore", "s", "lower"},
	{"self_s.scan", "s", "lower"},
	{"self_s.dataset", "s", "lower"},
	// tracing overhead on the workload's headline metric
	{"trace.overhead_pct", "%", "lower"},
}

// metricSet holds measured values by name.
type metricSet map[string]float64

func (m metricSet) set(name string, v float64) { m[name] = v }

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Dir     string // scratch directory, removed after the run
	Logf    func(format string, args ...any)
}

// outcome is a workload's result.
type outcome struct {
	Attempted int64
	Failed    int64
	Correct   bool
	E2E       metricSet
	Layers    metricSet
	// Detail carries what the result line cannot: the workload-specific
	// metric names, sample counts, chosen percentiles, oracle digests.
	Detail map[string]any
}

func newOutcome() *outcome {
	return &outcome{Correct: true, E2E: metricSet{}, Layers: metricSet{}, Detail: map[string]any{}}
}

// fail records an oracle mismatch: it counts as a failed operation and
// fails the run.
func (o *outcome) fail(logf func(string, ...any), format string, args ...any) {
	o.Correct = false
	o.Failed++
	o.Attempted++
	logf("ORACLE MISMATCH: "+format, args...)
}

// workload is one named benchmark input.
type workload struct {
	Name string
	Why  string
	Run  func(cfg runConfig) (*outcome, error)
}

// workloads lists every runnable workload. BENCHMARK.json declares the two
// sweeps; serve's and observatory's figures were too unsteady on the
// two-vCPU host to bound (README.md), and both stay runnable, traced and
// tested.
var workloads = []workload{
	{"sweep", "the production streaming sweep, CPU-bound in materialize/sign and the in-memory exchange", runSweep},
	{"sweep-lossy", "the same sweep with lossy operators, retries, resweeps, cache and dedup: wait-bound in retry backoff", runSweepLossy},
	{"serve", "open-loop UDP reads at a ladder of rates beside DS writes: wire fast path, full path, scoped invalidation", runServe},
	{"observatory", "open-loop HTTP reads while real daily snapshots are appended and ingested: ingest, publish, admission", runObservatory},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line from the metrics of the chosen kind. A
// missing end-to-end metric is a benchmark bug; a missing per-layer one is
// a layer the workload leaves idle and reads 0.
func render(o *outcome, trace bool) (resultLine, error) {
	defs, vals := endToEnd, o.E2E
	if trace {
		defs, vals = perLayer, o.Layers
	}
	res := resultLine{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !trace {
			return res, fmt.Errorf("workload did not report end-to-end metric %s", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if res.Attempted < 1 {
		return res, errors.New("workload attempted nothing")
	}
	return res, nil
}

// sourceIdentity names the code under test: the git commit when run from
// a git work tree, and always a digest of the module's Go sources and
// go.mod files, so results from a plain checkout stay attributable.
func sourceIdentity(root string) (commit, digest string) {
	commit = "unknown"
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if strings.HasPrefix(ref, "ref: ") {
			if b, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
				commit = strings.TrimSpace(string(b))
			}
		} else {
			commit = ref
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return commit, hex.EncodeToString(h.Sum(nil))[:16]
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: sweep, sweep-lossy, serve or observatory")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	flag.Parse()
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "pipebench: "+format+"\n", args...)
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		return 2
	}

	root, err := os.Getwd()
	if err != nil {
		logf("%v", err)
		return 1
	}
	dir := filepath.Join(root, ".bench_build", "pipebench-work", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	defer os.RemoveAll(dir)

	started := time.Now()
	o, err := w.Run(runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Dir: dir, Logf: logf})
	if err != nil {
		logf("%s: %v", w.Name, err)
		return 1
	}
	res, err := render(o, *trace == 1)
	if err != nil {
		logf("%s: %v", w.Name, err)
		return 1
	}

	host, _ := os.Hostname()
	commit, digest := sourceIdentity(root)
	meta := map[string]any{
		"workload":   w.Name,
		"why":        w.Why,
		"seed":       *seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"host":       host,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"source":     digest,
		"elapsed_s":  time.Since(started).Seconds(),
	}
	report, err := json.Marshal(map[string]any{"meta": meta, "detail": o.Detail})
	if err != nil {
		logf("%v", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(report))
	fmt.Println(string(line))
	return 0
}
