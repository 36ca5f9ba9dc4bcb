package dsweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// coordStateFile is the coordinator's durable state inside the checkpoint
// directory: completed units with their checksums, outstanding leases, and
// the sweep's fault counters. It is rewritten atomically after every
// mutation, so a coordinator killed at any instant restarts into a
// consistent lease table.
const coordStateFile = "coordinator.json"

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Plan is the sweep's work definition.
	Plan Plan
	// Store is the shared checkpoint directory workers flush shards into.
	Store *checkpoint.Store
	// LeaseTTL is the lease deadline budget (default 30s). A worker that
	// neither completes nor heartbeats within it loses the unit.
	LeaseTTL time.Duration
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
	// OnEvent, when set, receives progress lines.
	OnEvent func(format string, args ...any)
}

// Stats is the coordinator's fault accounting.
type Stats struct {
	// Units is the plan's total work unit count.
	Units int `json:"units"`
	// Done is the number of completed units.
	Done int `json:"done"`
	// Recovered counts units restored as already-complete from persisted
	// state at startup (a coordinator restart).
	Recovered int `json:"recovered"`
	// Releases counts expired leases returned to the pool for re-leasing.
	Releases int `json:"releases"`
	// Duplicates counts completions of already-done units with identical
	// checksums (stragglers finishing after a re-lease).
	Duplicates int `json:"duplicates"`
	// Divergent counts completions of already-done units with different
	// checksums (distinct vantage-point profiles); settled by value order.
	Divergent int `json:"divergent"`
	// Rejected counts completions whose shard archive failed verification.
	Rejected int `json:"rejected"`
}

// unit is one work unit's live state.
type unit struct {
	meta   *checkpoint.Shard // non-nil once the unit is done
	worker string            // completer (first accepted, or divergence winner)
	lease  *lease            // active lease, nil when pending or done
}

// lease is one outstanding work grant.
type lease struct {
	id      string
	unit    UnitID
	worker  string
	expires time.Time
}

// Coordinator owns a sweep plan: it grants leases over (day, shard) units,
// re-leases expired ones, settles duplicate completions by checksum,
// persists every state change, and performs the final CRC-verified merge.
// Its lease/heartbeat/complete methods are safe for concurrent use and
// implement Coordination directly for in-process workers.
type Coordinator struct {
	cfg   CoordinatorConfig
	order []UnitID // deterministic grant order: plan days × shard index

	mu        sync.Mutex
	units     map[UnitID]*unit
	leases    map[string]*lease
	seq       int
	stats     Stats
	healthDay map[simtime.Day]*scan.SweepHealth
	healthWkr map[string]*scan.SweepHealth
	doneCh    chan struct{}
	release   func() error // checkpoint dir lock
}

// NewCoordinator opens (and locks) the checkpoint directory, restores any
// persisted coordinator state under the same plan fingerprint, and returns
// a coordinator ready to grant leases. State persisted under a different
// fingerprint is refused rather than mixed in.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Plan.validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("dsweep: coordinator requires a checkpoint store")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	release, err := cfg.Store.AcquireLock("dsweep-coordinator", cfg.Plan.Fingerprint)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		units:     make(map[UnitID]*unit),
		leases:    make(map[string]*lease),
		healthDay: make(map[simtime.Day]*scan.SweepHealth),
		healthWkr: make(map[string]*scan.SweepHealth),
		doneCh:    make(chan struct{}),
		release:   release,
	}
	c.stats.Units = cfg.Plan.Units()
	for _, day := range cfg.Plan.Days {
		for k := 0; k < cfg.Plan.Shards; k++ {
			id := UnitID{Day: day, Shard: k}
			c.order = append(c.order, id)
			c.units[id] = &unit{}
		}
	}
	if err := c.restore(); err != nil {
		release()
		return nil, err
	}
	if c.allDoneLocked() {
		close(c.doneCh)
	}
	return c, nil
}

// event emits a progress line if a sink is attached.
func (c *Coordinator) event(format string, args ...any) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(format, args...)
	}
}

// Close releases the checkpoint directory lock. The persisted state stays
// behind for a restart; use Clear after a successful merge instead.
func (c *Coordinator) Close() error {
	if c.release == nil {
		return nil
	}
	rel := c.release
	c.release = nil
	return rel()
}

// Clear removes the coordinator state file and every shard archive — for
// after the merged archive is durably on disk.
func (c *Coordinator) Clear() error {
	if err := os.Remove(filepath.Join(c.cfg.Store.Dir(), coordStateFile)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return c.cfg.Store.Clear()
}

// Done is closed once every unit of the plan is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Stats returns a snapshot of the fault accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Done = c.doneCountLocked()
	return s
}

// Health returns the merged per-day and per-worker sweep health reports.
// Attribution follows accepted completions: a straggler's duplicate report
// is not double-counted.
func (c *Coordinator) Health() (byDay map[simtime.Day]*scan.SweepHealth, byWorker map[string]*scan.SweepHealth) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byDay = make(map[simtime.Day]*scan.SweepHealth, len(c.healthDay))
	for d, h := range c.healthDay {
		merged := &scan.SweepHealth{Day: d}
		merged.Merge(h)
		byDay[d] = merged
	}
	byWorker = make(map[string]*scan.SweepHealth, len(c.healthWkr))
	for w, h := range c.healthWkr {
		merged := &scan.SweepHealth{Day: h.Day}
		merged.Merge(h)
		byWorker[w] = merged
	}
	return byDay, byWorker
}

// FetchPlan implements Coordination.
func (c *Coordinator) FetchPlan(context.Context) (*Plan, error) {
	plan := c.cfg.Plan
	plan.Days = append([]simtime.Day(nil), c.cfg.Plan.Days...)
	return &plan, nil
}

// expireLocked sweeps the lease table, returning expired units to the
// pool. Reports whether anything changed.
func (c *Coordinator) expireLocked(now time.Time) bool {
	changed := false
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		delete(c.leases, id)
		u := c.units[l.unit]
		if u != nil && u.lease == l {
			u.lease = nil
			c.stats.Releases++
			changed = true
			c.event("coordinator: lease %s on %s (worker %s) expired; unit returns to the pool", id, l.unit, l.worker)
		}
	}
	return changed
}

// Lease implements Coordination: grant the first pending unit in plan
// order, after returning any expired leases to the pool.
func (c *Coordinator) Lease(_ context.Context, worker string) (*Grant, error) {
	if worker == "" {
		return nil, fmt.Errorf("dsweep: lease request without a worker id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	changed := c.expireLocked(now)
	var grant *Grant
	anyLeased := false
	for _, id := range c.order {
		u := c.units[id]
		if u.meta != nil {
			continue
		}
		if u.lease != nil {
			anyLeased = true
			continue
		}
		c.seq++
		l := &lease{
			id:      fmt.Sprintf("L%06d", c.seq),
			unit:    id,
			worker:  worker,
			expires: now.Add(c.cfg.LeaseTTL),
		}
		u.lease = l
		c.leases[l.id] = l
		grant = &Grant{Status: GrantRun, LeaseID: l.id, Unit: id, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
		changed = true
		break
	}
	if changed {
		if err := c.saveLocked(); err != nil {
			return nil, err
		}
	}
	if grant != nil {
		c.event("coordinator: leased %s to %s (%s)", grant.Unit, worker, grant.LeaseID)
		return grant, nil
	}
	if anyLeased {
		retry := c.cfg.LeaseTTL / 8
		if retry < 10*time.Millisecond {
			retry = 10 * time.Millisecond
		}
		if retry > time.Second {
			retry = time.Second
		}
		return &Grant{Status: GrantWait, RetryMillis: retry.Milliseconds()}, nil
	}
	return &Grant{Status: GrantDone}, nil
}

// Heartbeat implements Coordination: extend the lease's deadline. An
// unknown lease (expired and re-granted, or pre-restart) is an error the
// worker may ignore — its completion will still be settled by checksum.
func (c *Coordinator) Heartbeat(_ context.Context, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[leaseID]
	if l == nil {
		return fmt.Errorf("dsweep: unknown or expired lease %s", leaseID)
	}
	l.expires = c.cfg.Now().Add(c.cfg.LeaseTTL)
	return nil
}

// sameShard reports whether two completions carry identical shard bytes.
// File names are excluded: each worker writes its own owner-tagged file,
// and identical CRC+length over the same archive section format means
// identical content.
func sameShard(a, b *checkpoint.Shard) bool {
	return a.CRC == b.CRC && a.Records == b.Records
}

// shardLess is the deterministic value ordering that settles divergent
// duplicate completions independently of arrival order: smallest
// (CRC, records, file name) wins.
func shardLess(a, b *checkpoint.Shard) bool {
	if a.CRC != b.CRC {
		return a.CRC < b.CRC
	}
	if a.Records != b.Records {
		return a.Records < b.Records
	}
	return a.File < b.File
}

// Complete implements Coordination: settle a completion report. The shard
// archive is re-read and CRC-verified before it is trusted; a duplicate of
// an already-done unit is resolved by checksum, never by arrival order.
func (c *Coordinator) Complete(_ context.Context, req *CompleteRequest) (*CompleteReply, error) {
	if req == nil || req.Meta == nil {
		return nil, fmt.Errorf("dsweep: empty completion")
	}
	if req.Fingerprint != c.cfg.Plan.Fingerprint {
		return nil, fmt.Errorf("dsweep: completion for fingerprint %q, this sweep is %q", req.Fingerprint, c.cfg.Plan.Fingerprint)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.units[req.Unit]
	if u == nil {
		return nil, fmt.Errorf("dsweep: completion for unknown unit %s", req.Unit)
	}
	// The reporting lease is spent either way.
	if l := c.leases[req.LeaseID]; l != nil {
		delete(c.leases, req.LeaseID)
		if lu := c.units[l.unit]; lu != nil && lu.lease == l {
			lu.lease = nil
		}
	}

	if u.meta != nil {
		// Straggler: the unit was re-leased and already completed by
		// someone. Same bytes → idempotent acknowledgement; different
		// bytes → the fixed value ordering picks the winner.
		c.stats.Duplicates++
		status := CompleteDuplicate
		if !sameShard(u.meta, req.Meta) {
			c.stats.Divergent++
			status = CompleteDivergent
			c.event("coordinator: divergent duplicate for %s (have crc %08x from %s, got %08x from %s)",
				req.Unit, u.meta.CRC, u.worker, req.Meta.CRC, req.Worker)
			if shardLess(req.Meta, u.meta) {
				u.meta, u.worker = req.Meta, req.Worker
			}
		}
		if err := c.saveLocked(); err != nil {
			return nil, err
		}
		return &CompleteReply{Status: status, Done: c.allDoneLocked()}, nil
	}

	// First completion: verify the flushed shard before trusting it. A
	// worker with a sick disk must not poison the merge.
	if _, err := c.cfg.Store.LoadShard(req.Unit.Day, req.Unit.Shard, req.Meta); err != nil {
		c.stats.Rejected++
		c.event("coordinator: rejected completion of %s from %s: %v", req.Unit, req.Worker, err)
		if serr := c.saveLocked(); serr != nil {
			return nil, serr
		}
		return &CompleteReply{Status: CompleteRejected}, nil
	}
	u.meta, u.worker = req.Meta, req.Worker
	c.mergeHealthLocked(req)
	if err := c.saveLocked(); err != nil {
		return nil, err
	}
	c.event("coordinator: %s completed by %s (%d records, crc %08x) — %d/%d units done",
		req.Unit, req.Worker, req.Meta.Records, req.Meta.CRC, c.doneCountLocked(), len(c.order))
	done := c.allDoneLocked()
	if done {
		close(c.doneCh)
	}
	return &CompleteReply{Status: CompleteAccepted, Done: done}, nil
}

// mergeHealthLocked folds an accepted completion's health report into the
// per-day and per-worker aggregates.
func (c *Coordinator) mergeHealthLocked(req *CompleteRequest) {
	if req.Health == nil {
		return
	}
	dh := c.healthDay[req.Unit.Day]
	if dh == nil {
		dh = &scan.SweepHealth{Day: req.Unit.Day}
		c.healthDay[req.Unit.Day] = dh
	}
	dh.Merge(req.Health)
	wh := c.healthWkr[req.Worker]
	if wh == nil {
		wh = &scan.SweepHealth{Day: req.Unit.Day}
		c.healthWkr[req.Worker] = wh
	}
	wh.Merge(req.Health)
}

// doneCountLocked counts completed units.
func (c *Coordinator) doneCountLocked() int {
	n := 0
	for _, u := range c.units {
		if u.meta != nil {
			n++
		}
	}
	return n
}

// allDoneLocked reports whether every unit is complete.
func (c *Coordinator) allDoneLocked() bool { return c.doneCountLocked() == len(c.order) }

// Merge assembles the final archive: every unit's chosen shard is
// re-loaded and CRC-verified, and each day's records are put in canonical
// (TLD, domain) order — the order a single-process ResumableSweep's spill
// writer emits, so the output bytes match whatever the shard count.
func (c *Coordinator) Merge() (*dataset.Store, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.allDoneLocked() {
		return nil, fmt.Errorf("dsweep: merge before completion (%d/%d units done)", c.doneCountLocked(), len(c.order))
	}
	store := dataset.NewStore()
	for _, day := range c.cfg.Plan.Days {
		daySnap := &dataset.Snapshot{Day: day}
		for k := 0; k < c.cfg.Plan.Shards; k++ {
			id := UnitID{Day: day, Shard: k}
			u := c.units[id]
			snap, err := c.cfg.Store.LoadShard(day, k, u.meta)
			if err != nil {
				return nil, fmt.Errorf("dsweep: merge: unit %s: %w", id, err)
			}
			daySnap.Records = append(daySnap.Records, snap.Records...)
		}
		daySnap.Canonicalize()
		store.Add(daySnap)
	}
	return store, nil
}
