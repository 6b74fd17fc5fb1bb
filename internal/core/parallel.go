package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the parallel execution layer for workflow runs. Every run is
// a fully self-contained single-threaded simulation — it owns its engine,
// cluster, backend, and RNG streams — so independent runs can execute on
// separate OS threads without any coordination, and a parallel batch is
// byte-identical to a serial one. The paper's evaluation is an ensemble
// study (10 repetitions x many configurations), which makes fanning runs
// across cores the dominant wall-clock win for regenerating it.

// DefaultWorkers is the worker count RunMany uses when workers <= 0: the
// number of OS threads available to the process.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// RunMany executes every configuration through Run, fanning the independent
// runs across workers goroutines (workers <= 0 means DefaultWorkers).
//
// The output slice preserves input order: results[i] is cfgs[i]'s result,
// or nil if that run failed. Unlike a serial loop, a failing run does not
// abort the batch — every run executes, and the returned error joins every
// per-run error (each prefixed with its batch index). Results are
// deterministic: each run owns its engine and RNG streams, so the worker
// count affects only wall-clock time, never measurements.
func RunMany(cfgs []Config, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	if workers <= 1 {
		for i, cfg := range cfgs {
			results[i], errs[i] = runIndexed(i, cfg)
		}
		return results, errors.Join(errs...)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = runIndexed(i, cfgs[i])
			}
		}()
	}
	wg.Wait()
	return results, errors.Join(errs...)
}

// runIndexed runs one batch entry, tagging errors with the batch index and
// converting panics into errors so one broken run cannot take down the
// workers of an otherwise healthy batch.
func runIndexed(i int, cfg Config) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: run %d (%s): panic: %v", i, cfg.Label(), r)
		}
	}()
	res, err = Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: run %d: %w", i, err)
	}
	return res, nil
}

// RepeatConfigs expands cfg into reps copies with the repetition seed
// schedule (seed + i*golden-ratio increment) — the same schedule Repeat and
// RepeatWorkers use. Callers that need to adjust individual repetitions
// (e.g. enable span tracing on one) can edit the slice before RunMany.
func RepeatConfigs(cfg Config, reps int) []Config {
	cfgs := make([]Config, reps)
	for i := range cfgs {
		cfgs[i] = cfg
		cfgs[i].Seed = cfg.Seed + uint64(i)*0x9e3779b9
	}
	return cfgs
}

// RepeatWorkers runs cfg reps times with distinct seeds, fanning the
// repetitions across workers goroutines (workers <= 0 means
// DefaultWorkers). Seeds and therefore results are identical to serial
// execution for any worker count.
func RepeatWorkers(cfg Config, reps, workers int) ([]*Result, error) {
	if reps < 1 {
		return nil, fmt.Errorf("core: reps %d < 1", reps)
	}
	return RunMany(RepeatConfigs(cfg, reps), workers)
}
