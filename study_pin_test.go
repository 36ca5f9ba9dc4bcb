package registrarsec

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// pinnedSweeps are small longitudinal sweeps with the SHA-256 of their
// archive, recorded from the single-shard ScanLongitudinal before the
// whole-day sweep was folded into RunStream. The faulty sweep
// drops every packet to one hosting family, so its archive carries
// failure records too.
var pinnedSweeps = []struct {
	name   string
	cfg    LongitudinalConfig
	digest string
}{
	{
		name:   "clean",
		cfg:    LongitudinalConfig{Sample: 40, Workers: 4},
		digest: "74a4a084b2ab62ced76088dc7e5c3a890532995b017cf812b8e458fbaa5584de",
	},
	{
		name: "faulty",
		cfg: LongitudinalConfig{Sample: 40, Workers: 4, FaultSeed: 5,
			Rules: []FaultRule{{Pattern: "*.com-hosting.example", Loss: 1}}},
		digest: "6469c7633a379911cf1c716cc9cf919af29a818666217ed0dc1a5f15104b5467",
	},
}

// pinnedDays are the pinned sweeps' measurement days.
var pinnedDays = []Day{simtime.Date(2016, 6, 1), simtime.End}

// archiveDigest is the SHA-256 of the store's archive bytes.
func archiveDigest(store *dataset.Store) string {
	var buf bytes.Buffer
	store.WriteArchive(&buf) // a bytes.Buffer write cannot fail
	return fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
}

// TestScanLongitudinalPinnedDigest checks the public single-shard sweep
// still writes the pinned bytes.
func TestScanLongitudinalPinnedDigest(t *testing.T) {
	s := testStudy(t)
	for _, p := range pinnedSweeps {
		cfg := p.cfg
		cfg.Days = pinnedDays
		cfg.Shards = 1
		store, err := s.ScanLongitudinal(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := archiveDigest(store); got != p.digest {
			t.Errorf("%s: archive sha256 %s, want %s", p.name, got, p.digest)
		}
	}
}

// TestSweepGeometriesReproducePinnedDigest runs every pinned sweep at
// every shard count × chunk size through single-process RunStream and
// the coordinator/worker topology at fleet sizes 1 and 3: the archive
// bytes depend on the world, sample, days and faults only, so every
// geometry must reproduce the pinned digest. The faulty sweep spends most
// of its time in retry backoff, so the geometries run concurrently.
func TestSweepGeometriesReproducePinnedDigest(t *testing.T) {
	s := testStudy(t)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 8)
	check := func(name string, sweep func() (*dataset.Store, error), digest string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			store, err := sweep()
			if err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if got := archiveDigest(store); got != digest {
				t.Errorf("%s: archive sha256 %s, want %s", name, got, digest)
			}
		}()
	}
	for _, p := range pinnedSweeps {
		for _, shards := range []int{1, 3, 4} {
			cfg := p.cfg
			cfg.Days = pinnedDays
			cfg.Shards = shards
			mkSetup, err := s.longitudinalSetup(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range []int{0, 2, 7} {
				name := fmt.Sprintf("%s/shards=%d/chunk=%d", p.name, shards, chunk)
				check(name+"/RunStream", func() (*dataset.Store, error) {
					rs := &scan.ResumableSweep{Shards: shards, Chunk: chunk, StreamSetup: mkSetup()}
					store := dataset.NewStore()
					err := rs.RunStream(context.Background(), pinnedDays, func(day Day, sw *dataset.SpillWriter) error {
						snap := &dataset.Snapshot{Day: day}
						store.Add(snap)
						return sw.EachSorted(func(r *dataset.Record) error {
							snap.Records = append(snap.Records, *r)
							return nil
						})
					})
					return store, err
				}, p.digest)
				for _, fleet := range []int{1, 3} {
					dir := t.TempDir()
					check(fmt.Sprintf("%s/RunLocal-fleet%d", name, fleet), func() (*dataset.Store, error) {
						cp, err := checkpoint.Open(dir)
						if err != nil {
							return nil, err
						}
						workers := make([]dsweep.WorkerSpec, fleet)
						for i := range workers {
							workers[i] = dsweep.WorkerSpec{Name: fmt.Sprintf("w%d", i+1), StreamSetup: mkSetup()}
						}
						store, _, err := dsweep.RunLocal(context.Background(), dsweep.LocalConfig{
							Plan: dsweep.Plan{
								Fingerprint: "pin " + name,
								Days:        pinnedDays, Shards: shards, Chunk: chunk,
							},
							Store: cp, LeaseTTL: time.Second, Workers: workers,
						})
						return store, err
					}, p.digest)
				}
			}
		}
	}
	wg.Wait()
}
