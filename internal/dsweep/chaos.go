package dsweep

import (
	"errors"
	"time"
)

// ErrChaosKilled is returned by Worker.Run when a chaos script kills the
// worker. The harness treats it as the in-process equivalent of SIGKILL:
// the worker goroutine exits on the spot — no completion report, no
// heartbeat, no cleanup — and recovery is entirely the coordinator's
// lease-expiry path, exactly as with a real killed process.
var ErrChaosKilled = errors.New("dsweep: worker killed by chaos script")

// Action is one chaos injection kind.
type Action int

const (
	// ActNone runs the unit normally.
	ActNone Action = iota
	// ActKillBeforeWrite kills the worker after the scan, before anything
	// durable is written — the strongest mid-shard SIGKILL: the unit leaves
	// zero bytes behind and must be wholly re-leased.
	ActKillBeforeWrite
	// ActKillAfterWrite kills the worker after the shard archive is durably
	// flushed but before the completion report — the shard bytes exist but
	// the coordinator never hears about them, so the unit is re-leased and
	// the orphan file is simply never referenced by the merge.
	ActKillAfterWrite
	// ActStall suppresses the unit's heartbeats and sleeps Delay before the
	// write, making the worker a straggler: its lease expires, the unit is
	// re-leased, and its late completion arrives as a duplicate.
	ActStall
	// ActSlowDisk sleeps Delay before the shard write while heartbeats
	// continue — a slow disk that should NOT lose the lease.
	ActSlowDisk
	// ActKillBetweenChunks kills the worker after AfterChunks chunks of the
	// claimed unit have been durably flushed — the mid-shard SIGKILL the
	// chunk files exist to survive: the re-leased unit reuses every flushed
	// chunk by checksum and scans only the rest. If the unit has fewer
	// chunks than AfterChunks, it completes normally.
	ActKillBetweenChunks
)

// Event schedules one injection against one claim.
type Event struct {
	// Claim is the 1-based ordinal of the worker's lease claim the event
	// fires on (the Nth unit this worker starts, whatever unit that is —
	// chaos scripts are written against worker behaviour, not plan layout).
	Claim int
	// Act is the injection.
	Act Action
	// Delay parameterizes ActStall and ActSlowDisk.
	Delay time.Duration
	// AfterChunks parameterizes ActKillBetweenChunks: the kill fires once
	// this many chunks of the claimed unit have been durably flushed.
	AfterChunks int
}

// Script is a deterministic chaos schedule for one worker. A nil *Script
// injects nothing, so production code paths carry no chaos branches.
type Script struct {
	byClaim map[int]Event
}

// NewScript builds a schedule from events; later events on the same claim
// ordinal replace earlier ones.
func NewScript(events ...Event) *Script {
	s := &Script{byClaim: make(map[int]Event, len(events))}
	for _, ev := range events {
		s.byClaim[ev.Claim] = ev
	}
	return s
}

// next returns the event scheduled for a claim ordinal (ActNone if none).
// Nil-safe: a nil script always answers ActNone.
func (s *Script) next(claim int) Event {
	if s == nil {
		return Event{Claim: claim, Act: ActNone}
	}
	ev, ok := s.byClaim[claim]
	if !ok {
		return Event{Claim: claim, Act: ActNone}
	}
	return ev
}
