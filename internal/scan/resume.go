package scan

import (
	"context"
	"fmt"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// StreamDaySetup materializes the scanning environment for one day: the
// scanner, a random-access target cursor, and an optional per-chunk
// prepare hook (nil when the scanning substrate needs no per-chunk work,
// e.g. a fixed target slice over an already materialized network). It is
// called lazily — a day fully verified from the checkpoint never pays for
// a setup.
type StreamDaySetup func(ctx context.Context, day simtime.Day) (*Scanner, TargetSource, ChunkPrepare, error)

// DaySink receives each completed day of a sweep as a spill writer holding
// the day's full record set. The sink typically calls sw.WriteSectionTo to
// stream the canonical day section into an archive; the writer is closed
// by the caller after the sink returns.
type DaySink func(day simtime.Day, sw *dataset.SpillWriter) error

// ResumableSweep drives a multi-day sweep in checkpointable chunks. Each
// day's target cursor is split into a fixed number of shards, and each
// shard is walked in chunks; every completed chunk is durably written to
// the checkpoint directory before the next one starts, so an interruption
// — SIGINT, crash, kill — loses at most the chunk in flight. A re-run with
// the same configuration resumes from the last completed chunk: finished
// days are verified by checksum instead of re-scanned, damaged or missing
// chunks are re-scanned, and the in-flight chunk of the interrupted run is
// re-done from scratch (partial chunks are discarded, never persisted),
// which keeps the final archive byte-identical to an uninterrupted run.
//
// Each day's records reach the sink in canonical (TLD, domain) order, so
// the archive bytes depend on neither the shard count nor the chunk size.
type ResumableSweep struct {
	// Checkpoint persists progress; nil runs the sweep without durability
	// (still sharded and canonicalized, so output bytes are identical).
	Checkpoint *checkpoint.Store
	// Fingerprint identifies the sweep configuration. A checkpoint written
	// under a different fingerprint is refused rather than mixed in.
	Fingerprint string
	// Shards is the number of checkpoint units per day (default 4).
	Shards int
	// StreamSetup builds the scanner and target cursor for one day.
	StreamSetup StreamDaySetup
	// Chunk is the targets-per-chunk size; zero or negative means one
	// chunk per shard. It shapes the durable chunk files, so it must be
	// covered by the Fingerprint — resuming under a different chunk size
	// is refused at the shard level regardless.
	Chunk int
	// Spill configures the per-day spill-to-disk writers.
	Spill dataset.SpillOptions
	// OnDayHealth, when set, receives each day's aggregated health report.
	OnDayHealth func(day simtime.Day, h *SweepHealth)
	// OnEvent, when set, receives progress lines (resume skips, damage
	// re-scans).
	OnEvent func(format string, args ...any)
}

// event emits a progress line if a sink is attached.
func (rs *ResumableSweep) event(format string, args ...any) {
	if rs.OnEvent != nil {
		rs.OnEvent(format, args...)
	}
}

// shards returns the effective shard count.
func (rs *ResumableSweep) shards() int {
	if rs.Shards <= 0 {
		return 4
	}
	return rs.Shards
}

// ChunkSize returns the effective chunk size for a shard of n targets:
// chunk when positive, otherwise the whole shard (at least 1, so an empty
// shard still has a well-defined geometry).
func ChunkSize(chunk, n int) int {
	if chunk > 0 {
		return chunk
	}
	if n > 0 {
		return n
	}
	return 1
}

// lockAndLoad acquires the checkpoint's single-writer lock and loads (or
// creates) the state, refusing a state written under a different
// fingerprint. With no checkpoint configured it returns a fresh in-memory
// state and a no-op release.
func (rs *ResumableSweep) lockAndLoad() (*checkpoint.State, func() error, error) {
	if rs.Checkpoint == nil {
		return checkpoint.NewState(rs.Fingerprint), func() error { return nil }, nil
	}
	// The sweep is the sole mutator of the checkpoint state for its whole
	// run: a second process resuming the same directory must fail here,
	// not interleave Save calls with us.
	release, err := rs.Checkpoint.AcquireLock("resumable-sweep", rs.Fingerprint)
	if err != nil {
		return nil, nil, err
	}
	loaded, err := rs.Checkpoint.Load()
	if err != nil {
		release()
		return nil, nil, err
	}
	if loaded != nil {
		if loaded.Fingerprint != rs.Fingerprint {
			release()
			return nil, nil, fmt.Errorf("scan: checkpoint in %s belongs to a different sweep (fingerprint %q, this run %q)",
				rs.Checkpoint.Dir(), loaded.Fingerprint, rs.Fingerprint)
		}
		return loaded, release, nil
	}
	return checkpoint.NewState(rs.Fingerprint), release, nil
}

// saveState persists the checkpoint state if checkpointing is on.
func (rs *ResumableSweep) saveState(st *checkpoint.State) error {
	if rs.Checkpoint == nil {
		return nil
	}
	return rs.Checkpoint.Save(st)
}

// RunStream executes the sweep over days with bounded memory: targets come
// off a cursor chunk by chunk, every completed chunk is durably
// checkpointed before the next starts, and each day's records accumulate
// in a spill writer (RAM up to Spill.MemBudget, sorted run files beyond)
// handed to sink when the day completes. A SIGKILL mid-shard loses at most
// the chunk in flight; the re-run verifies completed chunks by checksum
// and re-enters the shard at the first missing chunk. On context
// cancellation it persists a clean checkpoint and returns the context's
// error; re-running with the same configuration picks up from there.
func (rs *ResumableSweep) RunStream(ctx context.Context, days []simtime.Day, sink DaySink) error {
	if rs.StreamSetup == nil {
		return fmt.Errorf("scan: RunStream requires a StreamSetup function")
	}
	st, release, err := rs.lockAndLoad()
	if err != nil {
		return err
	}
	defer release()
	for _, day := range days {
		if err := rs.runDayStream(ctx, day, st, sink); err != nil {
			return err
		}
	}
	return nil
}

// runDayStream completes one day chunk by chunk. The durable unit is the
// chunk, and a completed day keeps its Partial chunk map as the record of
// what the day is made of.
func (rs *ResumableSweep) runDayStream(ctx context.Context, day simtime.Day, st *checkpoint.State, sink DaySink) (err error) {
	dp := st.Day(day)
	sw := dataset.NewSpillWriter(day, rs.Spill)
	defer func() {
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// Fast path: the whole day is checkpointed — verify every chunk by
	// checksum and skip the scan (and the day's setup) entirely.
	if dp.Done && rs.Checkpoint != nil {
		ok, lerr := rs.loadDoneDayStream(day, dp, sw)
		if lerr != nil {
			return lerr
		}
		if ok {
			rs.event("resume: day %s verified from checkpoint (%d records), skipping scan", day, sw.Len())
			return rs.finishDayStream(day, sw, sink)
		}
		// Some chunk is damaged or missing: demote the day, discard
		// whatever the partial verification appended, and re-enter the
		// general path with a fresh writer.
		dp.Done = false
		if serr := rs.saveState(st); serr != nil {
			return serr
		}
		if cerr := sw.Close(); cerr != nil {
			return cerr
		}
		sw = dataset.NewSpillWriter(day, rs.Spill)
	}

	scanner, src, prepare, err := rs.StreamSetup(ctx, day)
	if err != nil {
		return err
	}
	spans := ShardBounds(src.Len(), rs.shards())
	dayHealth := &SweepHealth{Day: day, ByClass: make(map[FailClass]int)}
	var buf []Target

	for k, span := range spans {
		chunkSz := ChunkSize(rs.Chunk, span.Len())
		cp, err := dp.ChunkShard(k, chunkSz, span.Len())
		if err != nil {
			// The checkpoint's chunk geometry disagrees with this run's
			// plan — the recorded chunk files mean something else. Refuse,
			// like a fingerprint mismatch, rather than fabricate a day out
			// of incompatible pieces.
			return fmt.Errorf("scan: day %s: %w", day, err)
		}
		for c := 0; c < cp.Chunks; c++ {
			clo := span.Lo + c*chunkSz
			chi := min(clo+chunkSz, span.Hi)
			if meta := cp.Done[c]; meta != nil && rs.Checkpoint != nil {
				snap, err := rs.Checkpoint.LoadChunk(day, k, c, meta)
				if err == nil {
					rs.event("resume: day %s shard %d chunk %d/%d verified from checkpoint (%d records)",
						day, k, c+1, cp.Chunks, len(snap.Records))
					if err := sw.Append(snap.Records...); err != nil {
						return err
					}
					dayHealth.Merge(HealthFromSnapshot(day, chi-clo, snap))
					continue
				}
				rs.event("resume: day %s shard %d chunk %d/%d damaged (%v), re-scanning", day, k, c+1, cp.Chunks, err)
				delete(cp.Done, c)
			}

			if prepare != nil {
				if err := prepare(ctx, clo, chi); err != nil {
					return err
				}
			}
			buf = CollectTargets(src, clo, chi, buf)
			snap, health, scanErr := scanner.ScanDay(ctx, day, buf)
			dayHealth.Merge(health)
			if scanErr != nil {
				// Interrupted mid-chunk: drop the partial chunk, persist
				// what is already complete, and hand the caller a clean
				// resume point.
				if saveErr := rs.saveState(st); saveErr != nil {
					return fmt.Errorf("scan: %w (and checkpoint save failed: %v)", scanErr, saveErr)
				}
				if rs.OnDayHealth != nil {
					rs.OnDayHealth(day, dayHealth)
				}
				return scanErr
			}
			snap.Canonicalize()
			if rs.Checkpoint != nil {
				meta, err := rs.Checkpoint.WriteChunk(day, k, c, snap)
				if err != nil {
					return err
				}
				cp.Done[c] = meta
				if err := rs.saveState(st); err != nil {
					return err
				}
			}
			if err := sw.Append(snap.Records...); err != nil {
				return err
			}
		}
	}

	dp.Done = true
	if err := rs.saveState(st); err != nil {
		return err
	}
	if rs.OnDayHealth != nil {
		rs.OnDayHealth(day, dayHealth)
	}
	return rs.finishDayStream(day, sw, sink)
}

// finishDayStream hands the completed day to the sink.
func (rs *ResumableSweep) finishDayStream(day simtime.Day, sw *dataset.SpillWriter, sink DaySink) error {
	if sink == nil {
		return nil
	}
	return sink(day, sw)
}

// loadDoneDayStream assembles a completed day from its checkpointed chunks
// into sw, verifying each. ok is false if any chunk fails verification
// (damaged entries are removed so the caller re-scans just those), and
// also for a day marked done with no chunk progress at all: that is the
// state the retired whole-day sweep left behind (its shard files are not
// chunk files), and serving it would return an empty day as verified.
func (rs *ResumableSweep) loadDoneDayStream(day simtime.Day, dp *checkpoint.DayProgress, sw *dataset.SpillWriter) (bool, error) {
	if len(dp.Partial) == 0 {
		rs.event("resume: day %s is marked done but has no chunk progress, re-scanning", day)
		return false, nil
	}
	for k := 0; k < len(dp.Partial); k++ {
		cp := dp.Partial[k]
		if cp == nil {
			rs.event("resume: day %s shard %d missing from chunk progress", day, k)
			return false, nil
		}
		for c := 0; c < cp.Chunks; c++ {
			meta := cp.Done[c]
			if meta == nil {
				rs.event("resume: day %s shard %d chunk %d missing from checkpoint state", day, k, c)
				return false, nil
			}
			snap, err := rs.Checkpoint.LoadChunk(day, k, c, meta)
			if err != nil {
				rs.event("resume: day %s shard %d chunk %d failed verification (%v)", day, k, c, err)
				delete(cp.Done, c)
				return false, nil
			}
			if err := sw.Append(snap.Records...); err != nil {
				return false, err
			}
		}
	}
	return true, nil
}

// HealthFromSnapshot reconstructs approximate health accounting for a
// chunk restored from the checkpoint: measured and failed records are
// exact (they are in the snapshot); targets absent from the snapshot were
// unregistered or unknown-TLD at scan time and are folded into
// Unregistered, since the checkpoint does not persist that distinction.
// The reconstruction is always Balanced.
func HealthFromSnapshot(day simtime.Day, shardTargets int, snap *dataset.Snapshot) *SweepHealth {
	h := &SweepHealth{Day: day, Targets: shardTargets, ByClass: make(map[FailClass]int)}
	h.Measured = snap.MeasuredCount()
	for i := range snap.Records {
		r := &snap.Records[i]
		if !r.Failed {
			continue
		}
		class := FailClass(r.FailReason)
		if class == "" {
			class = FailTransport
		}
		h.Failures = append(h.Failures, Failure{
			Target: Target{Domain: r.Domain, TLD: r.TLD},
			Stage:  "checkpoint", Class: class,
		})
		h.ByClass[class]++
	}
	if absent := shardTargets - len(snap.Records); absent > 0 {
		h.Unregistered = absent
	}
	return h
}
