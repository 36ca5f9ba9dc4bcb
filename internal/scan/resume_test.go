package scan_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// cancelAtExchanger cancels the context when the Nth exchange begins, then
// lets the exchange itself fail on the dead context — a deterministic kill
// point mid-sweep.
type cancelAtExchanger struct {
	inner  exchange.Exchanger
	cancel context.CancelFunc
	at     int64
	n      atomic.Int64
}

func (e *cancelAtExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	if e.n.Add(1) == e.at {
		e.cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.inner.Exchange(ctx, server, q)
}

// sweepSetup returns a StreamDaySetup over the fixed in-memory world,
// optionally wrapping the exchanger: the target list behind a cursor and
// no per-chunk prepare (the in-memory world serves every domain already).
func sweepSetup(t *testing.T, eco *dnstest.Ecosystem, targets []scan.Target, wrap func(exchange.Exchanger) exchange.Exchanger) scan.StreamDaySetup {
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		var ex exchange.Exchanger = eco.Net
		if wrap != nil {
			ex = wrap(ex)
		}
		s, err := scan.New(scan.Config{
			Exchange: ex,
			TLDServers: map[string]string{
				"com": dnstest.TLDServerAddr("com"),
				"nl":  dnstest.TLDServerAddr("nl"),
			},
			Workers: 3,
			Clock:   eco.Clock.Day,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, scan.SliceTargets(targets), nil, nil
	}
}

// wholeDayArchive is the byte-identity oracle for every sweep geometry:
// each day is one ScanDay over all targets, canonicalized, written as an
// archive. A sweep's output must match it byte for byte whatever its shard
// count and chunk size.
func wholeDayArchive(t *testing.T, eco *dnstest.Ecosystem, targets []scan.Target, days []simtime.Day) []byte {
	t.Helper()
	store := dataset.NewStore()
	for _, day := range days {
		snap, _, err := newScanner(t, eco, 3).ScanDay(context.Background(), day, targets)
		if err != nil {
			t.Fatal(err)
		}
		snap.Canonicalize()
		store.Add(snap)
	}
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// archiveViaStream runs a sweep into an on-disk archive and returns the
// file bytes.
func archiveViaStream(t *testing.T, rs *scan.ResumableSweep, days []simtime.Day) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.tsv")
	aw, err := dataset.NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.RunStream(context.Background(), days, func(day simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	}); err != nil {
		aw.Abort()
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestResumableSweepKillResume drills the one-chunk-per-shard geometry
// (Chunk 0): the kill lands mid-shard, and the resume re-scans exactly
// the shards not yet durable.
func TestResumableSweepKillResume(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1}
	want := wholeDayArchive(t, eco, targets, days)

	// Count a clean run's exchanges to place the kill around 60% in:
	// deep enough that at least one shard completed.
	counter := &cancelAtExchanger{inner: eco.Net, at: -1}
	probe := &scan.ResumableSweep{Shards: 3, StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
		counter.inner = ex
		return counter
	})}
	if err := probe.RunStream(context.Background(), []simtime.Day{days[0]}, nil); err != nil {
		t.Fatal(err)
	}
	killAt := counter.n.Load() * 6 / 10
	if killAt < 2 {
		killAt = 2
	}

	dir := t.TempDir()
	cp, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: killAt}
	var events []string
	interrupted := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "drill-v1",
		Shards:      3,
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			killer.inner = ex
			return killer
		}),
		OnEvent: func(f string, a ...any) { events = append(events, f) },
	}
	if err := interrupted.RunStream(ctx, days, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if !cp.Exists() {
		t.Fatal("no checkpoint persisted by the interrupted run")
	}

	// Resume with a fresh context and no fault: must complete and produce
	// a byte-identical archive.
	resumed := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "drill-v1",
		Shards:      3,
		StreamSetup: sweepSetup(t, eco, targets, nil),
		OnEvent:     func(f string, a ...any) { events = append(events, f) },
	}
	if got := archiveViaStream(t, resumed, days); !bytes.Equal(want, got) {
		t.Errorf("resumed archive differs from the whole-day oracle:\n--- want\n%s\n--- got\n%s", want, got)
	}

	// A second resume verifies everything from checksum without scanning.
	if again := archiveViaStream(t, resumed, days); !bytes.Equal(want, again) {
		t.Error("checksum-verified reload diverges from the scan")
	}
	verified := false
	for _, e := range events {
		if strings.Contains(e, "verified from checkpoint") {
			verified = true
		}
	}
	if !verified {
		t.Errorf("no checkpoint verification events in %q", events)
	}
}

func TestResumableSweepFingerprintGuard(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	dir := t.TempDir()
	cp, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg-a", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	if err := first.RunStream(context.Background(), []simtime.Day{day}, nil); err != nil {
		t.Fatal(err)
	}
	other := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg-b", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	if err := other.RunStream(context.Background(), []simtime.Day{day}, nil); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("foreign checkpoint accepted: %v", err)
	}
}

func TestResumableSweepDamagedShardRescanned(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	dir := t.TempDir()
	cp, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rs := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	want := archiveViaStream(t, rs, []simtime.Day{day})

	// Bit-flip shard 0's file at rest (one chunk per shard: Chunk is 0).
	matches, err := filepath.Glob(filepath.Join(dir, "day-*-shard-000-chunk-*.tsv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("shard files: %v, %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	var events []string
	rs.OnEvent = func(f string, a ...any) { events = append(events, f) }
	if got := archiveViaStream(t, rs, []simtime.Day{day}); !bytes.Equal(want, got) {
		t.Error("re-scan after shard damage diverges from original archive")
	}
	sawDamage := false
	for _, e := range events {
		if strings.Contains(e, "failed verification") || strings.Contains(e, "damaged") {
			sawDamage = true
		}
	}
	if !sawDamage {
		t.Errorf("damage not reported: %q", events)
	}
}

// TestRunStreamDoneDayWithoutChunksRescanned writes the state the retired
// whole-day sweep left behind — a day marked done whose records live in
// shard files, with no chunk progress — and checks the day is re-scanned
// in full instead of served empty as verified.
func TestRunStreamDoneDayWithoutChunksRescanned(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	want := wholeDayArchive(t, eco, targets, []simtime.Day{day})

	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := newScanner(t, eco, 3).ScanDay(context.Background(), day, targets)
	if err != nil {
		t.Fatal(err)
	}
	snap.Canonicalize()
	meta, err := cp.WriteShard(day, 0, snap)
	if err != nil {
		t.Fatal(err)
	}
	st := checkpoint.NewState("old-layout")
	dp := st.Day(day)
	dp.Shards[0] = meta
	dp.Done = true
	if err := cp.Save(st); err != nil {
		t.Fatal(err)
	}

	var events []string
	rs := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "old-layout", Shards: 1,
		StreamSetup: sweepSetup(t, eco, targets, nil),
		OnEvent:     func(f string, a ...any) { events = append(events, fmt.Sprintf(f, a...)) },
	}
	if got := archiveViaStream(t, rs, []simtime.Day{day}); !bytes.Equal(want, got) {
		t.Errorf("done day without chunk progress not re-scanned in full:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if !strings.Contains(strings.Join(events, "\n"), "no chunk progress") {
		t.Errorf("re-scan not reported: %q", events)
	}
}
