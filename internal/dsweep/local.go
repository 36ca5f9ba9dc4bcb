package dsweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// WorkerSpec declares one in-process worker for RunLocal.
type WorkerSpec struct {
	// Name identifies the worker; must be unique within the topology.
	Name string
	// StreamSetup builds the worker's scanning environment per day.
	StreamSetup scan.StreamDaySetup
	// Chaos, when set, injects scripted faults into this worker.
	Chaos *Script
}

// LocalConfig configures RunLocal.
type LocalConfig struct {
	Plan     Plan
	Store    *checkpoint.Store
	LeaseTTL time.Duration
	Workers  []WorkerSpec
	// OnEvent receives coordinator and worker progress lines.
	OnEvent func(format string, args ...any)
	// Now overrides the coordinator clock (tests).
	Now func() time.Time
}

// Result is RunLocal's outcome accounting.
type Result struct {
	// Stats is the coordinator's fault accounting.
	Stats Stats
	// HealthByDay and HealthByWorker are the merged sweep-health reports.
	HealthByDay    map[simtime.Day]*scan.SweepHealth
	HealthByWorker map[string]*scan.SweepHealth
	// WorkerErrs maps worker name to its terminal error, for workers that
	// died (chaos kills, context cancellation). A sweep can still succeed
	// with dead workers as long as at least one survivor finished the plan.
	WorkerErrs map[string]error
}

// RunLocal runs a complete coordinator + N in-process workers topology to
// completion: every worker drains the plan concurrently, dead workers are
// tolerated while at least one survives, and the final archive is the
// coordinator's CRC-verified merge. The checkpoint directory is left
// intact for the caller to Clear once the merged archive is durable.
func RunLocal(ctx context.Context, cfg LocalConfig) (*dataset.Store, *Result, error) {
	if len(cfg.Workers) == 0 {
		return nil, nil, fmt.Errorf("dsweep: RunLocal needs at least one worker")
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Plan:     cfg.Plan,
		Store:    cfg.Store,
		LeaseTTL: cfg.LeaseTTL,
		Now:      cfg.Now,
		OnEvent:  cfg.OnEvent,
	})
	if err != nil {
		return nil, nil, err
	}
	defer coord.Close()

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[string]error)
	)
	for _, ws := range cfg.Workers {
		w, err := NewWorker(WorkerConfig{
			Name:        ws.Name,
			Coord:       coord,
			Store:       cfg.Store,
			StreamSetup: ws.StreamSetup,
			Chaos:       ws.Chaos,
			OnEvent:     cfg.OnEvent,
		})
		if err != nil {
			return nil, nil, err
		}
		wg.Add(1)
		go func(w *Worker, name string) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				mu.Lock()
				errs[name] = err
				mu.Unlock()
			}
		}(w, ws.Name)
	}
	wg.Wait()

	res := &Result{Stats: coord.Stats(), WorkerErrs: errs}
	res.HealthByDay, res.HealthByWorker = coord.Health()

	select {
	case <-coord.Done():
	default:
		// Every worker exited without finishing the plan — all killed by
		// chaos, or the context was cancelled. The checkpoint and the
		// coordinator state survive for a re-run.
		if err := ctx.Err(); err != nil {
			return nil, res, err
		}
		return nil, res, fmt.Errorf("dsweep: all %d workers died with %d/%d units done (errors: %v)",
			len(cfg.Workers), res.Stats.Done, cfg.Plan.Units(), joinWorkerErrs(errs))
	}

	store, err := coord.Merge()
	if err != nil {
		return nil, res, err
	}
	return store, res, nil
}

// joinWorkerErrs renders the worker error map compactly.
func joinWorkerErrs(errs map[string]error) error {
	var parts []error
	for name, err := range errs {
		parts = append(parts, fmt.Errorf("%s: %w", name, err))
	}
	return errors.Join(parts...)
}
