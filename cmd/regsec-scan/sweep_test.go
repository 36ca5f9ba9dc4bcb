package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// sweepDigest is the SHA-256 of the archive the sweep below writes. The
// one-shard run of this command pinned it before the whole-day sweep was
// folded into RunStream; every shard count and chunk size must reproduce
// it.
const sweepDigest = "620a43aecca12491115f1c5928208d6df84cb051d3ce1cbfd818e2ad9f1a3c5e"

// TestSweepArchiveIndependentOfGeometry runs the same sweep twice at
// -shards 1 and at -shards 4 with and without -chunk 8: every run must
// write identical archive bytes, equal to the pinned digest.
func TestSweepArchiveIndependentOfGeometry(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-scale", "4000", "-sample", "120", "-days", "2016-06-01,2016-12-31"}
	runs := []struct {
		name string
		args []string
	}{
		{"shards1", []string{"-shards", "1"}},
		{"shards1-again", []string{"-shards", "1"}},
		{"shards4", []string{"-shards", "4"}},
		{"shards4-chunk8", []string{"-shards", "4", "-chunk", "8"}},
		{"shards4-chunk8-again", []string{"-shards", "4", "-chunk", "8"}},
	}
	var first []byte
	for _, r := range runs {
		out := filepath.Join(dir, r.name+".tsv")
		args := append(append(append([]string(nil), base...), r.args...), "-o", out)
		if code := run(args); code != 0 {
			t.Fatalf("%s: exit code %d", r.name, code)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sweepDigest {
			t.Errorf("%s: archive sha256 %s, want %s", r.name, got, sweepDigest)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Errorf("%s: archive differs from %s", r.name, runs[0].name)
		}
	}
}
