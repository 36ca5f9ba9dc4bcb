package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/apiserv"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// obsConfig sizes the observatory workload.
type obsConfig struct {
	Divisor     float64 // world population divisor (4000 → ~37k domains)
	History     int     // daily snapshots pre-ingested during set-up
	StepDays    int     // days between consecutive snapshots
	AppendEvery time.Duration
	ReadRate    int // offered reads per second in the open-loop window
	SetupReps   int
	Poll        time.Duration // the tailer's archive poll cadence
	Refresh     time.Duration // the snapshot refresher's cadence
	PostPublish time.Duration // reads due this soon after a publish count as post-publish
	TracedShare float64       // traced pass length as a share of the run
	MaxLate     time.Duration // a pacer p99 lateness above this invalidates the run
}

func obsFull() obsConfig {
	return obsConfig{
		Divisor: 4000, History: 40, StepDays: 5, AppendEvery: 400 * time.Millisecond,
		// About a tenth of the closed-loop capacity beside ingest on the
		// two-vCPU host (README.md), so the open-loop latencies are
		// service time plus ingest interference, not queueing.
		ReadRate: 400, SetupReps: 3,
		Poll: 2 * time.Millisecond, Refresh: 50 * time.Millisecond,
		PostPublish: 100 * time.Millisecond, TracedShare: 0.5,
		// The pacer shares the two vCPUs with the daemon; ingest bursts
		// delay its wake-ups by a few ms at p99, which the due-time
		// latencies include. Far beyond that, the load was not offered.
		MaxLate: 25 * time.Millisecond,
	}
}

func runObservatory(cfg runConfig) (*outcome, error) { return obsWorkload(cfg, obsFull()) }

// Read routes, in the order of their per-route metrics.
var obsRoutes = []string{"table1", "series", "operators", "dsgap"}

// statusPoll is how often the benchmark asks /v1/status whether an
// appended section has been published.
const statusPoll = time.Millisecond

// obsRig is the set-up product: the archive with its history ingested by
// a running daemon, and the sections still to append. The sections wait
// on disk, so the timed phase's live heap is the daemon's, not theirs.
type obsRig struct {
	worldCfg tldsim.WorldConfig
	archive  string
	world    string
	days     []simtime.Day // history days, then the days still to append
	sections []string      // files holding the serialized sections for days[History:]
	history  int
	sent     int      // sections appended after set-up
	ops      []string // operators of the last history day
	opCum    []int    // running total of their domain counts, for weighted draws

	srv    *apiserv.Server
	h      http.Handler  // srv's handler stack, built once
	polls  atomic.Uint64 // /v1/status requests the benchmark made through h
	cancel context.CancelFunc
	ran    chan struct{}
	http   *http.Server
	url    string
}

func (r *obsRig) stop() {
	if r.http != nil {
		r.http.Close()
	}
	if r.cancel != nil {
		r.cancel()
		<-r.ran
	}
}

// status reads /v1/status through the daemon's handler, in process. Each
// call passes the admission gate, so it is counted in r.polls and taken
// out of the admitted reads.
func (r *obsRig) status() (apiserv.Status, error) {
	r.polls.Add(1)
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
	var st apiserv.Status
	err := json.Unmarshal(rec.Body.Bytes(), &st)
	return st, err
}

// waitSections polls status until the daemon reports want sections.
func (r *obsRig) waitSections(want int, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		st, err := r.status()
		if err == nil && st.Ready && st.Sections >= want {
			return time.Now(), nil
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("daemon reported %d of %d sections after %v", st.Sections, want, timeout)
		}
		time.Sleep(statusPoll)
	}
}

func buildObsRig(cfg runConfig, oc obsConfig) (*obsRig, error) {
	wc := tldsim.WorldConfig{Scale: 1 / oc.Divisor, Seed: cfg.Seed, Workers: runtime.NumCPU()}
	world, err := tldsim.Build(wc)
	if err != nil {
		return nil, err
	}
	// Enough sections for the timed phase and the traced pass, plus slack.
	appends := int(cfg.Seconds*float64(time.Second)/float64(oc.AppendEvery)*(1+oc.TracedShare)) + 4
	rig := &obsRig{worldCfg: wc, archive: filepath.Join(cfg.Dir, "scans.tsv"), history: oc.History}
	first := simtime.End - simtime.Day((oc.History+appends)*oc.StepDays)
	for i := 0; i < oc.History+appends; i++ {
		rig.days = append(rig.days, first+simtime.Day(i*oc.StepDays))
	}
	f, err := os.Create(rig.archive)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	opCount := map[string]int{}
	for i, day := range rig.days {
		snap := world.SnapshotAt(day)
		snap.Canonicalize()
		if i < oc.History {
			if err := snap.WriteArchiveSection(f); err != nil {
				return nil, err
			}
			if i == oc.History-1 {
				for _, r := range snap.Records {
					opCount[r.Operator]++
				}
			}
			continue
		}
		var buf bytes.Buffer
		if err := snap.WriteArchiveSection(&buf); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.Dir, fmt.Sprintf("section-%d.tsv", i))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, err
		}
		rig.sections = append(rig.sections, path)
	}
	if err := f.Sync(); err != nil {
		return nil, err
	}
	for op := range opCount {
		rig.ops = append(rig.ops, op)
	}
	sort.Strings(rig.ops)
	total := 0
	for _, op := range rig.ops {
		total += opCount[op]
		rig.opCum = append(rig.opCum, total)
	}
	return rig, nil
}

// startDaemon starts a fresh daemon (empty world file) over the rig's
// archive and returns how long it took to ingest the history.
func (r *obsRig) startDaemon(cfg runConfig, oc obsConfig, rep int) (time.Duration, error) {
	r.stop()
	r.world = filepath.Join(cfg.Dir, fmt.Sprintf("world-%d.colstore", rep))
	t0 := time.Now()
	r.srv = apiserv.New(apiserv.Config{
		ArchivePath: r.archive, WorldPath: r.world,
		PollInterval: oc.Poll, RefreshInterval: oc.Refresh,
	})
	r.h = r.srv.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel, r.ran = cancel, make(chan struct{})
	go func() {
		defer close(r.ran)
		r.srv.Run(ctx)
	}()
	seen, err := r.waitSections(r.history, 60*time.Second)
	if err != nil {
		return 0, err
	}
	return seen.Sub(t0), nil
}

// serveHTTP puts the daemon's handler on a loopback listener.
func (r *obsRig) serveHTTP() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.url = "http://" + ln.Addr().String()
	r.http = &http.Server{Handler: r.h}
	go r.http.Serve(ln)
	return nil
}

// readMix draws the read schedule. No request log exists for this daemon
// to take shares from, so every kind of read gets an equal share, as in
// regsec-bench -api's round robin over the same four routes: the schedule
// cycles the four routes, each once for the latest day and once for a
// past day drawn uniformly from the pre-ingested history. The series
// route asks, with regsec-bench's step of 30 days, for the operator of a
// uniformly drawn domain of the last history day, so operators are read
// in proportion to their size in the model world.
func (r *obsRig) readMix(seed int64) (paths []string, routes []int) {
	rng := rand.New(rand.NewSource(seed))
	operator := func() string {
		n := rng.Intn(r.opCum[len(r.opCum)-1])
		return r.ops[sort.SearchInts(r.opCum, n+1)]
	}
	for i := 0; i < 4000; i++ {
		route, day := i%len(obsRoutes), ""
		if (i/len(obsRoutes))%2 == 1 {
			day = r.days[rng.Intn(r.history)].String()
		}
		var p string
		switch route {
		case 0:
			p = "/v1/table1?day=" + day
		case 1:
			p = "/v1/series?step=30&operator=" + url.QueryEscape(operator()) + "&to=" + day
		case 2:
			p = "/v1/operators?class=dnskey&day=" + day
		default:
			p = "/v1/dsgap?day=" + day
		}
		paths, routes = append(paths, p), append(routes, route)
	}
	return paths, routes
}

// readResult is one read: which route, when it was due, its latency from
// the due time and whether it succeeded.
type readResult struct {
	route int
	due   time.Time
	lat   time.Duration
	ok    bool
}

// obsWindow is one timed phase of reads beside appends.
type obsWindow struct {
	reads     []readResult
	late      *latencies // open loop only
	lags      latencies
	published []time.Time
	appended  int
	lagFailed int
	cpu       float64
	start     time.Time
	end       time.Time
	wall      time.Duration
	admitted  uint64 // reads admitted by the gate, the benchmark's status polls taken out
	shed      uint64
}

// window reads for dur over nproc keep-alive connections while appending
// one section every oc.AppendEvery. Open loop, reads are due at
// oc.ReadRate and timed from their due time; closed loop, each
// connection sends its next read as soon as the last is answered, which
// measures the read capacity beside ingest.
func (r *obsRig) window(oc obsConfig, dur time.Duration, paths []string, routes []int, rec *recorder, closed bool) (*obsWindow, error) {
	conns := runtime.NumCPU()
	client := &http.Client{
		Timeout:   2 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true},
	}
	defer client.CloseIdleConnections()
	read := func(k int, due time.Time) readResult {
		i := k % len(paths)
		res := readResult{route: routes[i], due: due}
		resp, err := client.Get(r.url + paths[i])
		if err == nil {
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			res.ok = err == nil && resp.StatusCode == http.StatusOK
		}
		res.lat = time.Since(due)
		return res
	}
	w := &obsWindow{}
	adm0, shed0 := r.srv.GateStats()
	polls0 := r.polls.Load()
	win := rec.start("apiserv", "api.window", 0, 1)
	start := time.Now().Add(5 * time.Millisecond)
	end := start.Add(dur)
	cpu0 := cpuSeconds()

	type job struct {
		k   int
		due time.Time
	}
	var jobs chan job
	var next atomic.Int64
	if !closed {
		jobs = make(chan job, int(dur.Seconds()*float64(oc.ReadRate))+1) // every read the window can release
	}
	results := make([][]readResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if !closed {
				for j := range jobs {
					results[c] = append(results[c], read(j.k, j.due))
				}
				return
			}
			time.Sleep(time.Until(start))
			for now := time.Now(); now.Before(end); now = time.Now() {
				results[c] = append(results[c], read(int(next.Add(1)-1), now))
			}
		}(c)
	}

	// The appender: one fsynced section per AppendEvery, then the lag
	// until /v1/status reports it.
	appendErr := make(chan error, 1)
	go func() {
		appendErr <- func() error {
			for k := 0; ; k++ {
				at := start.Add(time.Duration(k) * oc.AppendEvery)
				if !at.Before(end) {
					return nil
				}
				if r.sent >= len(r.sections) {
					return errors.New("observatory: ran out of prepared sections")
				}
				time.Sleep(time.Until(at))
				sec := r.sections[r.sent]
				sp := rec.start("dataset", "dataset.append", win, 0)
				t0, err := appendSection(r.archive, sec)
				rec.end(sp)
				if err != nil {
					return err
				}
				w.appended++
				r.sent++
				sp = rec.start("apiserv", "apiserv.ingest", win, 0)
				seen, err := r.waitSections(r.history+r.sent, 5*time.Second)
				rec.end(sp)
				if err != nil {
					w.lagFailed++
					continue
				}
				w.lags.add(seen.Sub(t0))
				w.published = append(w.published, seen)
			}
		}()
	}()

	if !closed {
		w.late = pace(start, 0, time.Second/time.Duration(oc.ReadRate), end, func(k int, due time.Time) {
			jobs <- job{k: k, due: due}
		})
		close(jobs)
	}
	wg.Wait()
	if err := <-appendErr; err != nil {
		return nil, err
	}
	w.cpu, w.start, w.end, w.wall = cpuSeconds()-cpu0, start, end, time.Since(start)
	for _, rs := range results {
		w.reads = append(w.reads, rs...)
	}
	var busy time.Duration
	for _, rd := range w.reads {
		busy += rd.lat
	}
	rec.fold(win, int64(len(w.reads)), busy)
	rec.end(win)
	adm, shed := r.srv.GateStats()
	w.admitted, w.shed = adm-adm0-(r.polls.Load()-polls0), shed-shed0
	return w, nil
}

// capacity is the median, over the window's slice-long slices, of the
// reads answered 200 per second, so a slice slowed by a commit burst or
// by the host does not set the figure alone.
func (w *obsWindow) capacity(slice time.Duration) float64 {
	rates := make([]float64, int(w.end.Sub(w.start)/slice))
	for _, rd := range w.reads {
		if i := int(rd.due.Add(rd.lat).Sub(w.start) / slice); rd.ok && i >= 0 && i < len(rates) {
			rates[i] += 1 / slice.Seconds()
		}
	}
	return median(rates)
}

// appendSection appends the serialized section in secPath to the archive
// and fsyncs it, returning when the bytes are durable. It copies through
// a small buffer: a section-sized allocation per append would add
// benchmark garbage to the daemon's heap.
func appendSection(path, secPath string) (time.Time, error) {
	sec, err := os.Open(secPath)
	if err != nil {
		return time.Time{}, err
	}
	defer sec.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return time.Time{}, err
	}
	if _, err := io.Copy(f, sec); err != nil {
		f.Close()
		return time.Time{}, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return time.Time{}, err
	}
	if err := f.Close(); err != nil {
		return time.Time{}, err
	}
	return time.Now(), nil
}

// readStats summarizes a window's reads.
type readStats struct {
	all, post *latencies
	byRoute   []*latencies
	ok, bad   int64
}

func (w *obsWindow) stats(postPublish time.Duration) readStats {
	s := readStats{all: &latencies{}, post: &latencies{}}
	for range obsRoutes {
		s.byRoute = append(s.byRoute, &latencies{})
	}
	for _, rd := range w.reads {
		if !rd.ok {
			s.bad++
			continue
		}
		s.ok++
		s.all.add(rd.lat)
		s.byRoute[rd.route].add(rd.lat)
		i := sort.Search(len(w.published), func(i int) bool { return w.published[i].After(rd.due) })
		if i > 0 && rd.due.Sub(w.published[i-1]) <= postPublish {
			s.post.add(rd.lat)
		}
	}
	return s
}

// routeP50 returns each route's median latency in µs and their mean. The
// routes differ in cost (about 350 µs to 1 ms on the two-vCPU host) and
// share the mix equally, so the pooled median falls where one route's
// latencies end and the next one's begin, and a small shift in the share
// of slowed reads moves it by that gap; each route's median lies inside
// its own route's latencies.
func (s readStats) routeP50() (mean float64, each []float64) {
	for _, l := range s.byRoute {
		p := l.summarize(time.Microsecond).P50
		each = append(each, p)
		mean += p / float64(len(s.byRoute))
	}
	return mean, each
}

// checkTable1 compares the daemon's final /v1/table1 with colstore's
// Overview computed directly from the same World.SnapshotAt snapshots,
// taken from the world rebuilt from the seed and ingested into a fresh
// colstore.Ingester. The archive is read back only to check that it holds
// every section appended.
func (r *obsRig) checkTable1() (bool, error) {
	f, err := os.Open(r.archive)
	if err != nil {
		return false, err
	}
	defer f.Close()
	store, err := dataset.ReadArchiveStrict(f)
	if err != nil {
		return false, err
	}
	n := r.history + r.sent
	if store.Len() != n {
		return false, fmt.Errorf("archive holds %d sections, want %d", store.Len(), n)
	}
	world, err := tldsim.Build(r.worldCfg)
	if err != nil {
		return false, err
	}
	ing := colstore.NewIngester()
	for _, day := range r.days[:n] {
		snap := world.SnapshotAt(day)
		snap.Canonicalize()
		if _, err := ing.AppendDay(snap); err != nil {
			return false, err
		}
	}
	tlds := world.TLDs()
	sort.Strings(tlds)
	last := r.days[n-1]
	want := struct {
		Day  string                 `json:"day"`
		TLDs []analysis.TLDOverview `json:"tlds"`
	}{last.String(), ing.Freeze().Overview(last, tlds)}
	resp, err := http.Get(r.url + "/v1/table1")
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	got := want
	got.TLDs = nil
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		return false, err
	}
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(got)
	return bytes.Equal(a, b), nil
}

func obsWorkload(cfg runConfig, oc obsConfig) (*outcome, error) {
	o := newOutcome()
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder()
	}
	rig, err := buildObsRig(cfg, oc)
	if err != nil {
		return nil, err
	}
	defer rig.stop()
	var setups []float64
	for i := 0; i < oc.SetupReps; i++ {
		sp := rec.start("apiserv", "apiserv.preingest", 0, int64(i+1))
		d, err := rig.startDaemon(cfg, oc, i)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		cfg.Logf("setup %d: %d sections pre-ingested in %.2fs", i+1, oc.History, d.Seconds())
	}
	if err := rig.serveHTTP(); err != nil {
		return nil, err
	}
	paths, routes := rig.readMix(cfg.Seed)

	// The timed phase: open-loop reads (latency, CPU per read, ingest
	// lag) for its first half, then closed-loop reads (capacity), appends
	// running throughout.
	total := time.Duration(cfg.Seconds * float64(time.Second))
	open := total / 2
	pw := beginWindow()
	w, err := rig.window(oc, open, paths, routes, nil, false)
	if err != nil {
		return nil, err
	}
	cw, err := rig.window(oc, total-open, paths, routes, nil, true)
	if err != nil {
		return nil, err
	}
	pw.stop()
	st := w.stats(oc.PostPublish)
	cst := cw.stats(oc.PostPublish)
	all := st.all.summarize(time.Microsecond)
	p50, routeP50 := st.routeP50()
	lag := w.lags.summarize(time.Millisecond)
	// One slice per append, so every slice holds one commit.
	capacity := cw.capacity(oc.AppendEvery)
	lateP99 := percentileOf(append([]float64(nil), w.late.v...), 99) / 1e3
	cfg.Logf("open loop: %d ok, %d failed, route-mean p50 %.0fµs, pooled p50 %.0fµs tail(p%g) %.0fµs; %d appends, lag p50 %.1fms; pacer late p99 %.0fµs",
		st.ok, st.bad, p50, all.P50, all.TailP, all.Tail, w.appended, lag.P50, lateP99)
	cfg.Logf("closed loop: %d ok, %d failed, median %.0f reads/s (whole window %.0f); %d appends",
		cst.ok, cst.bad, capacity, float64(cst.ok)/cw.wall.Seconds(), cw.appended)

	o.Attempted = int64(len(w.reads) + w.appended + len(cw.reads) + cw.appended)
	o.Failed = st.bad + int64(w.lagFailed) + cst.bad + int64(cw.lagFailed)
	o.E2E.set("setup_s", median(setups))
	o.E2E.set("peak_heap_mb", float64(pw.Peak)/1e6)
	o.E2E.set("ok_frac", 1-ratio(float64(o.Failed), float64(o.Attempted)))
	o.E2E.set("throughput_per_s", capacity)
	o.E2E.set("cpu_us_per_op", 1e6*ratio(w.cpu, float64(len(w.reads))))
	o.E2E.set("p50_us", p50)
	o.E2E.set("lag_ms", lag.P50)
	o.Detail["api_capacity_reads_per_s"] = capacity
	o.Detail["api_open_loop_reads_per_s"] = float64(st.ok) / w.wall.Seconds()
	o.Detail["api_p50_us"] = p50
	o.Detail["api_route_p50_us"] = routeP50
	o.Detail["api_p99_us"] = percentileOf(append([]float64(nil), st.all.v...), 99) / 1e3
	o.Detail["api_reads"] = all
	o.Detail["gen_late_p99_us"] = lateP99
	if lateP99 > float64(oc.MaxLate.Microseconds()) {
		o.fail(cfg.Logf, "the read pacer ran %.0fµs late at p99 (limit %v): the offered load was not offered", lateP99, oc.MaxLate)
	}
	o.Detail["ingest_lag_ms"] = lag
	o.Detail["ingest_lag_ms_closed_loop"] = cw.lags.summarize(time.Millisecond)
	o.Detail["failed_frac"] = ratio(float64(o.Failed), float64(o.Attempted))
	o.Detail["config"] = oc

	if cfg.Trace {
		tw := beginWindow()
		tr, err := rig.window(oc, time.Duration(float64(total)*oc.TracedShare), paths, routes, rec, false)
		if err != nil {
			return nil, err
		}
		tw.stop()
		ts := tr.stats(oc.PostPublish)
		o.Attempted += int64(len(tr.reads) + tr.appended)
		o.Failed += ts.bad + int64(tr.lagFailed)
		// The daemon's own figures go to the details: observatory is not in
		// BENCHMARK.json, so no judged run produces them (README.md).
		api := metricSet{}
		api.set("apiserv.admitted", float64(tr.admitted))
		api.set("apiserv.shed", float64(tr.shed))
		for i, name := range obsRoutes {
			api.set("apiserv.route_tail_us."+name, ts.byRoute[i].summarize(time.Microsecond).Tail)
		}
		api.set("apiserv.post_publish_tail_us", ts.post.summarize(time.Microsecond).Tail)
		if info, err := os.Stat(rig.world); err == nil {
			api.set("colstore.world_file_bytes", float64(info.Size()))
		}
		api.set("gen.late_p99_us", percentileOf(append([]float64(nil), tr.late.v...), 99)/1e3)
		setSelfTimes(api, rec.snapshot())
		o.Detail["api_layers"] = api
		m := o.Layers
		tw.layerMetrics(m, int64(len(tr.reads)))
		tp50, _ := ts.routeP50()
		m.set("trace.overhead_pct", 100*ratio(tp50-p50, p50))
	}

	ok, err := rig.checkTable1()
	if err != nil {
		return nil, err
	}
	o.Detail["table1_matches_oracle"] = ok
	if !ok {
		o.fail(cfg.Logf, "final /v1/table1 differs from colstore Overview over the same snapshots")
	}
	return o, nil
}
