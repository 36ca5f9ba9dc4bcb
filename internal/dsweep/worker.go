package dsweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator and tags its shard
	// files; must be unique within one sweep.
	Name string
	// Coord is the control plane: a *Coordinator directly, or a *Client.
	Coord Coordination
	// Store is the shared checkpoint directory shards are flushed into.
	Store *checkpoint.Store
	// StreamSetup builds this worker's scanner and target cursor for one
	// day — each worker owns its whole exchange stack, so vantage-point
	// fault profiles and transport state never leak between workers. The
	// worker scans its shard chunk by chunk, durably flushing each chunk,
	// so a kill mid-shard resumes at the last flushed chunk instead of
	// from scratch.
	StreamSetup scan.StreamDaySetup
	// Chaos, when set, injects scripted faults (tests only).
	Chaos *Script
	// OnEvent, when set, receives progress lines.
	OnEvent func(format string, args ...any)
}

// Worker claims leases from a coordinator, scans its shard through its own
// exchange stack, flushes the result as an owner-tagged checksum-trailered
// shard archive, and reports completion. It keeps no durable state of its
// own: everything it knows is either in the shared checkpoint directory or
// re-derivable, which is what makes killing it at any instant safe.
type Worker struct {
	cfg    WorkerConfig
	claims int

	cachedDay simtime.Day
	cached    *workerDayStream
}

// workerDayStream is one day's scanning environment — the scanner, target
// cursor, per-chunk prepare hook and shard spans — cached because the
// coordinator leases a day's shards consecutively.
type workerDayStream struct {
	scanner *scan.Scanner
	src     scan.TargetSource
	prepare scan.ChunkPrepare
	spans   []scan.Span
	buf     []scan.Target
}

// NewWorker validates the configuration and returns a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	switch {
	case cfg.Name == "":
		return nil, fmt.Errorf("dsweep: worker requires a name")
	case cfg.Coord == nil:
		return nil, fmt.Errorf("dsweep: worker requires a coordinator")
	case cfg.Store == nil:
		return nil, fmt.Errorf("dsweep: worker requires a checkpoint store")
	case cfg.StreamSetup == nil:
		return nil, fmt.Errorf("dsweep: worker requires a day setup")
	}
	return &Worker{cfg: cfg}, nil
}

// event emits a progress line if a sink is attached.
func (w *Worker) event(format string, args ...any) {
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(format, args...)
	}
}

// Run claims and completes units until the plan is done, the context is
// cancelled, or a fault (real or chaos-injected) kills the worker.
func (w *Worker) Run(ctx context.Context) error {
	plan, err := w.cfg.Coord.FetchPlan(ctx)
	if err != nil {
		return fmt.Errorf("dsweep: worker %s: fetching plan: %w", w.cfg.Name, err)
	}
	if err := plan.validate(); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.cfg.Coord.Lease(ctx, w.cfg.Name)
		if err != nil {
			return fmt.Errorf("dsweep: worker %s: lease: %w", w.cfg.Name, err)
		}
		switch grant.Status {
		case GrantDone:
			w.event("worker %s: plan complete, exiting", w.cfg.Name)
			return nil
		case GrantWait:
			if err := sleepCtx(ctx, time.Duration(grant.RetryMillis)*time.Millisecond); err != nil {
				return err
			}
		case GrantRun:
			done, err := w.runUnit(ctx, plan, grant)
			if err != nil {
				return err
			}
			if done {
				w.event("worker %s: plan complete, exiting", w.cfg.Name)
				return nil
			}
		default:
			return fmt.Errorf("dsweep: worker %s: unknown grant status %q", w.cfg.Name, grant.Status)
		}
	}
}

// runUnit scans one leased unit, flushes it, and reports completion,
// honouring any chaos event scripted for this claim ordinal. It reports
// whether this completion finished the whole plan — in that case the
// coordinator may stop serving immediately, so the worker must not come
// back for another lease.
func (w *Worker) runUnit(ctx context.Context, plan *Plan, grant *Grant) (bool, error) {
	w.claims++
	ev := w.cfg.Chaos.next(w.claims)
	unit := grant.Unit
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond

	// A stalled worker is one whose heartbeats stop arriving — so the
	// stall injection simply never starts the heartbeat loop.
	stopHB := func() {}
	if ev.Act != ActStall {
		stopHB = w.startHeartbeat(ctx, grant.LeaseID, ttl)
	}
	defer stopHB()

	snap, health, err := w.scanUnit(ctx, plan, unit, ev)
	if err != nil {
		return false, err
	}

	switch ev.Act {
	case ActKillBeforeWrite:
		w.event("worker %s: chaos kill before write on %s (claim %d)", w.cfg.Name, unit, w.claims)
		return false, ErrChaosKilled
	case ActStall:
		w.event("worker %s: chaos stall %s on %s (claim %d)", w.cfg.Name, ev.Delay, unit, w.claims)
		if err := sleepCtx(ctx, ev.Delay); err != nil {
			return false, err
		}
	case ActSlowDisk:
		w.event("worker %s: chaos slow disk %s on %s (claim %d)", w.cfg.Name, ev.Delay, unit, w.claims)
		if err := sleepCtx(ctx, ev.Delay); err != nil {
			return false, err
		}
	}

	meta, err := w.cfg.Store.WriteShardAs(unit.Day, unit.Shard, w.cfg.Name, snap)
	if err != nil {
		return false, fmt.Errorf("dsweep: worker %s: flushing %s: %w", w.cfg.Name, unit, err)
	}
	if ev.Act == ActKillAfterWrite {
		w.event("worker %s: chaos kill after write on %s (claim %d)", w.cfg.Name, unit, w.claims)
		return false, ErrChaosKilled
	}
	stopHB()

	reply, err := w.cfg.Coord.Complete(ctx, &CompleteRequest{
		LeaseID:     grant.LeaseID,
		Worker:      w.cfg.Name,
		Unit:        unit,
		Fingerprint: plan.Fingerprint,
		Meta:        meta,
		Health:      health,
	})
	if err != nil {
		return false, fmt.Errorf("dsweep: worker %s: completing %s: %w", w.cfg.Name, unit, err)
	}
	w.event("worker %s: unit %s settled as %s (%d records)", w.cfg.Name, unit, reply.Status, meta.Records)
	return reply.Done, nil
}

// dayStream returns the worker's scanning environment for a day, building
// it via StreamSetup on first use. Only the most recent day is cached: the
// coordinator grants in plan order, so day changes are monotone and rare.
func (w *Worker) dayStream(ctx context.Context, plan *Plan, d simtime.Day) (*workerDayStream, error) {
	if w.cached != nil && w.cachedDay == d {
		return w.cached, nil
	}
	scanner, src, prepare, err := w.cfg.StreamSetup(ctx, d)
	if err != nil {
		return nil, fmt.Errorf("dsweep: worker %s: setup for %s: %w", w.cfg.Name, d, err)
	}
	wd := &workerDayStream{
		scanner: scanner,
		src:     src,
		prepare: prepare,
		spans:   scan.ShardBounds(src.Len(), plan.Shards),
	}
	w.cachedDay, w.cached = d, wd
	return wd, nil
}

// chunkOwner tags this worker's durable chunk files with a hash of the plan
// fingerprint, so a restarted worker trusts only chunks it wrote itself
// under this exact plan — never a stale file from a previous sweep in the
// same directory, and never another worker's chunks, whose vantage-point
// fault profile may legitimately differ.
func (w *Worker) chunkOwner(plan *Plan) string {
	h := fnv.New32a()
	h.Write([]byte(plan.Fingerprint))
	return fmt.Sprintf("%s-%08x", w.cfg.Name, h.Sum32())
}

// scanUnit scans one unit: the shard's cursor span is walked in
// plan.Chunk-sized chunks (one chunk for the whole shard when Chunk is 0),
// each chunk is durably flushed as an owner-tagged checksum-trailered file
// the moment it completes, and chunks already flushed by an earlier
// (killed) incarnation of this worker are verified and reused instead of
// re-scanned. The assembled, canonicalized shard snapshot is returned to
// runUnit, which writes it as the unit's shard archive for the
// coordinator's completion and merge protocol.
func (w *Worker) scanUnit(ctx context.Context, plan *Plan, unit UnitID, ev Event) (*dataset.Snapshot, *scan.SweepHealth, error) {
	day, err := w.dayStream(ctx, plan, unit.Day)
	if err != nil {
		return nil, nil, err
	}
	// The plan's shard count is fixed, but ShardBounds clamps to the
	// target count — indices past the span list are legitimately empty
	// units whose archive contributes zero records to the merge.
	var span scan.Span
	if unit.Shard < len(day.spans) {
		span = day.spans[unit.Shard]
	}
	chunkSz := scan.ChunkSize(plan.Chunk, span.Len())
	chunks := (span.Len() + chunkSz - 1) / chunkSz
	owner := w.chunkOwner(plan)
	snap := &dataset.Snapshot{Day: unit.Day}
	health := &scan.SweepHealth{Day: unit.Day, ByClass: make(map[scan.FailClass]int)}
	flushed := 0
	for c := 0; c < chunks; c++ {
		clo := span.Lo + c*chunkSz
		chi := min(clo+chunkSz, span.Hi)
		part, err := w.cfg.Store.LoadChunkAs(unit.Day, unit.Shard, c, owner)
		if err == nil {
			w.event("worker %s: reusing chunk %d/%d of %s (%d records)", w.cfg.Name, c+1, chunks, unit, len(part.Records))
			snap.Records = append(snap.Records, part.Records...)
			health.Merge(scan.HealthFromSnapshot(unit.Day, chi-clo, part))
			continue
		}
		if !errors.Is(err, fs.ErrNotExist) {
			w.event("worker %s: chunk %d/%d of %s damaged (%v), re-scanning", w.cfg.Name, c+1, chunks, unit, err)
		}
		if day.prepare != nil {
			if err := day.prepare(ctx, clo, chi); err != nil {
				return nil, nil, err
			}
		}
		day.buf = scan.CollectTargets(day.src, clo, chi, day.buf)
		part, h, scanErr := day.scanner.ScanDay(ctx, unit.Day, day.buf)
		health.Merge(h)
		if scanErr != nil {
			return nil, nil, fmt.Errorf("dsweep: worker %s: unit %s: %w", w.cfg.Name, unit, scanErr)
		}
		part.Canonicalize()
		if _, err := w.cfg.Store.WriteChunkAs(unit.Day, unit.Shard, c, owner, part); err != nil {
			return nil, nil, fmt.Errorf("dsweep: worker %s: flushing chunk %d of %s: %w", w.cfg.Name, c, unit, err)
		}
		snap.Records = append(snap.Records, part.Records...)
		flushed++
		if ev.Act == ActKillBetweenChunks && flushed >= ev.AfterChunks {
			w.event("worker %s: chaos kill after %d flushed chunks on %s (claim %d)", w.cfg.Name, flushed, unit, w.claims)
			return nil, nil, ErrChaosKilled
		}
	}
	snap.Canonicalize()
	return snap, health, nil
}

// startHeartbeat extends the lease on a ttl/3 cadence until stopped. A
// failing heartbeat (lease already expired, coordinator restarted) stops
// the loop but not the unit: the late completion is still settled safely
// by checksum on the coordinator side.
func (w *Worker) startHeartbeat(ctx context.Context, leaseID string, ttl time.Duration) (stop func()) {
	interval := ttl / 3
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := w.cfg.Coord.Heartbeat(ctx, leaseID); err != nil {
					w.event("worker %s: heartbeat for %s: %v", w.cfg.Name, leaseID, err)
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// sleepCtx waits d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
