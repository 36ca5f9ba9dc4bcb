package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// Process-level accounting: CPU from getrusage, GC and heap figures from
// runtime/metrics.

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

var rtNames = []string{
	"/gc/heap/live:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// rtStats is one runtime/metrics reading.
type rtStats struct {
	LiveBytes  uint64
	AllocBytes uint64
	GCCycles   uint64
	GCCPU      float64
	TotalCPU   float64
	IdleCPU    float64
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtStats{LiveBytes: u(0), AllocBytes: u(1), GCCycles: u(2), GCCPU: f(3), TotalCPU: f(4), IdleCPU: f(5)}
}

// procWindow measures one timed phase: wall, process CPU, GC work and
// allocation between begin and stop, and the peak live heap seen by a
// background sampler.
type procWindow struct {
	start    time.Time
	cpu0     float64
	rt0      rtStats
	peak     atomic.Uint64
	stopping chan struct{}
	done     chan struct{}

	Wall     time.Duration
	CPU      float64 // process CPU-seconds
	Baseline uint64  // live heap at begin, after a forced GC
	Peak     uint64  // peak live heap during the phase
	GCCycles uint64
	GCCPU    float64 // runtime-estimated GC CPU-seconds
	UsedCPU  float64 // runtime-estimated non-idle CPU-seconds
	Alloc    uint64  // bytes allocated
}

// beginWindow settles the heap, reads the baseline and starts sampling.
// The live-heap metric moves at each GC mark; allocation keeps marks
// frequent during the phase, and stop forces one final mark.
func beginWindow() *procWindow {
	runtime.GC()
	w := &procWindow{stopping: make(chan struct{}), done: make(chan struct{})}
	w.rt0 = readRuntime()
	w.Baseline = w.rt0.LiveBytes
	w.peak.Store(w.Baseline)
	w.cpu0 = cpuSeconds()
	w.start = time.Now()
	go func() {
		defer close(w.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stopping:
				return
			case <-t.C:
				w.observe(readRuntime().LiveBytes)
			}
		}
	}()
	return w
}

func (w *procWindow) observe(v uint64) {
	for {
		p := w.peak.Load()
		if v <= p || w.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// stop ends the phase and fills the results.
func (w *procWindow) stop() {
	w.Wall = time.Since(w.start)
	w.CPU = cpuSeconds() - w.cpu0
	close(w.stopping)
	<-w.done
	rt := readRuntime()
	w.observe(rt.LiveBytes)
	w.Peak = w.peak.Load()
	w.GCCycles = rt.GCCycles - w.rt0.GCCycles
	w.GCCPU = rt.GCCPU - w.rt0.GCCPU
	w.UsedCPU = (rt.TotalCPU - rt.IdleCPU) - (w.rt0.TotalCPU - w.rt0.IdleCPU)
	w.Alloc = rt.AllocBytes - w.rt0.AllocBytes
}

// cpuUtil is CPU-seconds over wall × GOMAXPROCS: 1 means every P was busy,
// low values mean the work waited.
func (w *procWindow) cpuUtil() float64 {
	return ratio(w.CPU, w.Wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
}

// gcShare is the runtime's estimate of the GC's share of used CPU.
func (w *procWindow) gcShare() float64 { return ratio(w.GCCPU, w.UsedCPU) }

// layerMetrics are the process figures every traced run reports.
func (w *procWindow) layerMetrics(m metricSet, ops int64) {
	m.set("proc.cpu_s", w.CPU)
	m.set("proc.cpu_util", w.cpuUtil())
	m.set("gc.cpu_share", w.gcShare())
	m.set("gc.cycles", float64(w.GCCycles))
	m.set("gc.alloc_bytes_per_op", ratio(float64(w.Alloc), float64(ops)))
	m.set("gc.baseline_heap_mb", float64(w.Baseline)/1e6)
}
