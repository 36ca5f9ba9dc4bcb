package checkpoint

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

func TestChunkWriteLoadRoundTrip(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 1)
	snap := testSnapshot(day)
	meta, err := cp.WriteChunk(day, 2, 7, snap)
	if err != nil {
		t.Fatal(err)
	}
	if meta.File != "day-2016-03-01-shard-002-chunk-00007.tsv" {
		t.Errorf("chunk file name: %q", meta.File)
	}
	got, err := cp.LoadChunk(day, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, snap.Records) {
		t.Errorf("records differ after round trip")
	}

	// Corruption is detected.
	path := filepath.Join(cp.Dir(), meta.File)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.LoadChunk(day, meta); err == nil {
		t.Error("corrupt chunk loaded without error")
	}
}

func TestChunkOwnerTaggedLoad(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 2)
	snap := testSnapshot(day)

	// Never written → fs.ErrNotExist passes through.
	if _, err := cp.LoadChunkAs(day, 0, 0, "w1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing owner chunk: %v, want fs.ErrNotExist", err)
	}

	meta, err := cp.WriteChunkAs(day, 0, 0, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := cp.LoadChunkAs(day, 0, 0, "w1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, snap.Records) {
		t.Errorf("records differ after owner-tagged round trip")
	}
	// Another owner's name does not collide.
	if _, err := cp.LoadChunkAs(day, 0, 0, "w2"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("other owner's chunk: %v, want fs.ErrNotExist", err)
	}

	// Trailer damage is detected without a recorded CRC.
	path := filepath.Join(cp.Dir(), meta.File)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.LoadChunkAs(day, 0, 0, "w1"); err == nil {
		t.Error("truncated owner chunk loaded without error")
	}
}

func TestChunkShardGeometry(t *testing.T) {
	dp := &DayProgress{}
	cp, err := dp.ChunkShard(0, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Chunks != 3 || cp.Chunk != 10 || cp.Targets != 25 {
		t.Fatalf("geometry: %+v", cp)
	}
	for c, want := range map[int]int{0: 10, 1: 10, 2: 5, 3: 0} {
		if got := cp.ChunkTargets(c); got != want {
			t.Errorf("ChunkTargets(%d) = %d, want %d", c, got, want)
		}
	}
	if cp.Complete() {
		t.Error("empty progress reported complete")
	}
	cp.Done[0], cp.Done[1], cp.Done[2] = &Shard{}, &Shard{}, &Shard{}
	if !cp.Complete() {
		t.Error("full progress not complete")
	}

	// Same geometry returns the same entry.
	again, err := dp.ChunkShard(0, 10, 25)
	if err != nil || again != cp {
		t.Fatalf("re-entry: %v, same=%v", err, again == cp)
	}
	// Different chunk size is refused.
	if _, err := dp.ChunkShard(0, 8, 25); err == nil {
		t.Error("chunk-size change accepted")
	}
	// Different target count is refused.
	if _, err := dp.ChunkShard(0, 10, 30); err == nil {
		t.Error("target-count change accepted")
	}
	// Empty shard has zero chunks and is trivially complete.
	empty, err := dp.ChunkShard(1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Chunks != 0 || !empty.Complete() {
		t.Errorf("empty shard: %+v", empty)
	}
}

func TestClearRemovesChunkFiles(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 3)
	if _, err := cp.WriteChunk(day, 0, 0, testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WriteChunkAs(day, 0, 1, "w1", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(NewState("fp")); err != nil {
		t.Fatal(err)
	}
	if err := cp.Clear(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind after Clear: %s", e.Name())
	}
}
