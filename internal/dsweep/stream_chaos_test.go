package dsweep

// Chaos drills for the chunked (streaming) worker path: whatever is
// injected, the merged archive must stay byte-identical to an
// uninterrupted single-process sweep — and a worker killed between chunks
// must resume its shard from the durable chunk files instead of from
// scratch.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/simtime"
)

// eventLog collects progress lines for assertions while echoing to the
// test log.
type eventLog struct {
	t  *testing.T
	mu sync.Mutex
	ls []string
}

func (el *eventLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	el.mu.Lock()
	el.ls = append(el.ls, line)
	el.mu.Unlock()
	el.t.Log(line)
}

func (el *eventLog) count(substr string) int {
	el.mu.Lock()
	defer el.mu.Unlock()
	n := 0
	for _, l := range el.ls {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

// newChunkedEnv builds a chaos env whose plan runs the streaming path in
// chunks of the given size.
func newChunkedEnv(t *testing.T, shards, chunk int) *chaosEnv {
	t.Helper()
	env := newChaosEnv(t, shards)
	env.plan.Fingerprint = fmt.Sprintf("chunk-drill-v1 chunk=%d", chunk)
	env.plan.Chunk = chunk
	return env
}

// runChunked executes RunLocal with streaming workers and asserts the
// merged archive is byte-identical to the whole-day oracle.
func (env *chaosEnv) runChunked(t *testing.T, ttl time.Duration, scripts map[string]*Script, el *eventLog) *Result {
	t.Helper()
	var workers []WorkerSpec
	for _, name := range sortedKeys(scripts) {
		workers = append(workers, WorkerSpec{
			Name:        name,
			StreamSetup: testStreamSetup(t, env.eco, env.targets),
			Chaos:       scripts[name],
		})
	}
	store, res, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: ttl, Workers: workers,
		OnEvent: el.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := store.WriteArchive(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.want, got.Bytes()) {
		t.Errorf("chunked distributed archive differs from the whole-day oracle:\n--- want\n%s\n--- got\n%s",
			env.want, got.String())
	}
	return res
}

func TestRunLocalChunkedCleanByteIdentical(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	el := &eventLog{t: t}
	res := env.runChunked(t, 10*time.Second, map[string]*Script{"w1": nil, "w2": nil}, el)
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors in clean run: %v", res.WorkerErrs)
	}
	if res.Stats.Done != env.plan.Units() {
		t.Fatalf("done %d units, want %d", res.Stats.Done, env.plan.Units())
	}
	// Per-worker attribution still covers the whole sweep under chunking.
	total := 0
	for _, h := range res.HealthByWorker {
		total += h.Targets
	}
	if want := len(env.targets) * len(env.days); total != want {
		t.Fatalf("per-worker targets %d, want %d", total, want)
	}
}

func TestRunLocalChunkedKillBetweenChunksResumes(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	el := &eventLog{t: t}

	// Phase 1: the only worker is SIGKILLed after durably flushing one
	// chunk of its first unit. The sweep halts with a partial shard on disk.
	_, res, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: 200 * time.Millisecond,
		Workers: []WorkerSpec{{
			Name:        "w1",
			StreamSetup: testStreamSetup(t, env.eco, env.targets),
			Chaos:       NewScript(Event{Claim: 1, Act: ActKillBetweenChunks, AfterChunks: 1}),
		}},
		OnEvent: el.logf,
	})
	if err == nil {
		t.Fatal("phase 1 succeeded despite its only worker dying")
	}
	if !errors.Is(res.WorkerErrs["w1"], ErrChaosKilled) {
		t.Fatalf("w1 error: %v", res.WorkerErrs["w1"])
	}
	if el.count("chaos kill after 1 flushed chunks") == 0 {
		t.Fatal("kill-between-chunks never fired")
	}

	// Phase 2: the same worker restarts over the same directory. Its first
	// re-claimed unit must reuse the flushed chunk by checksum instead of
	// re-scanning it, and the finished archive must be byte-identical.
	res2 := env.runChunked(t, 200*time.Millisecond, map[string]*Script{"w1": nil}, el)
	if len(res2.WorkerErrs) != 0 {
		t.Fatalf("phase 2 worker errors: %v", res2.WorkerErrs)
	}
	if el.count("reusing chunk") == 0 {
		t.Fatal("restarted worker re-scanned its flushed chunk instead of reusing it")
	}
}

func TestRunLocalChunkedOwnerTagIsolation(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	el := &eventLog{t: t}

	// Phase 1: w1 dies after flushing one chunk.
	_, _, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: 200 * time.Millisecond,
		Workers: []WorkerSpec{{
			Name:        "w1",
			StreamSetup: testStreamSetup(t, env.eco, env.targets),
			Chaos:       NewScript(Event{Claim: 1, Act: ActKillBetweenChunks, AfterChunks: 1}),
		}},
		OnEvent: el.logf,
	})
	if err == nil {
		t.Fatal("phase 1 succeeded despite its only worker dying")
	}

	// Phase 2: a DIFFERENT worker takes over. w1's chunks are owner-tagged
	// (another vantage point may legitimately measure differently), so w2
	// must re-scan from scratch — and still merge byte-identical.
	res := env.runChunked(t, 200*time.Millisecond, map[string]*Script{"w2": nil}, el)
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("phase 2 worker errors: %v", res.WorkerErrs)
	}
	if el.count("reusing chunk") != 0 {
		t.Fatal("w2 reused another worker's owner-tagged chunks")
	}
}

// TestWorkerRefusesChunkSetupMismatch: every plan is chunked (Chunk 0 is
// one chunk per shard), so a worker without a StreamSetup is refused
// before it joins, and a negative chunk size never validates.
func TestWorkerRefusesChunkSetupMismatch(t *testing.T) {
	eco, _ := buildTestWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Plan: Plan{Fingerprint: "fp", Days: days, Shards: 2}, Store: st, LeaseTTL: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := NewWorker(WorkerConfig{Name: "w1", Coord: coord, Store: st}); err == nil {
		t.Error("worker without a StreamSetup accepted")
	}

	bad := Plan{Fingerprint: "fp", Days: days, Shards: 1, Chunk: -1}
	if err := bad.validate(); err == nil {
		t.Error("negative plan chunk accepted")
	}
}
