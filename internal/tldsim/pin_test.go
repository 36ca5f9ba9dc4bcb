package tldsim

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// pinnedWorlds are world files with the SHA-256 of their saved bytes,
// recorded while the sequential materialized build still shipped next to
// the streaming one (both wrote these exact bytes). Any change to
// sampling, naming, interning or the file format moves a digest.
var pinnedWorlds = []struct {
	cfg    WorldConfig
	digest string
}{
	{WorldConfig{Scale: 1.0 / 2000, Seed: 3}, "78d2b3dd4d610e23cdbcba542edca1cb14f006099bbc54e0718b8a1f80023b66"},
	{WorldConfig{Scale: 1.0 / 4000, Seed: 1}, "264788efe888dd4eff69b22e46ee787a5865f79c8474e4dd620e011e5a7e6bb1"},
}

// TestWorldFilePinnedDigest builds each pinned world at one and at four
// workers, saves it, and checks the file's digest.
func TestWorldFilePinnedDigest(t *testing.T) {
	dir := t.TempDir()
	for _, p := range pinnedWorlds {
		for _, workers := range []int{1, 4} {
			cfg := p.cfg
			cfg.Workers = workers
			w, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("world-%d-%d.rscw", cfg.Seed, workers))
			if err := w.Save(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != p.digest {
				t.Errorf("scale %g seed %d workers %d: world file (%d domains, %d B) sha256 %s, want %s",
					cfg.Scale, cfg.Seed, workers, w.Len(), len(data), got, p.digest)
			}
		}
	}
}
