// Package engine is the parallel trial runner on top of internal/sim:
// it shards independent wave simulations (and buffered-model
// replications) across workers, gives each trial its own
// deterministically-derived PCG stream and each worker its own reusable
// scratch state, and aggregates delivered/dropped/latency statistics
// with means and confidence intervals.
//
// Determinism is the core contract: trial t always runs with the
// stream NewRand(seed, t), whichever worker and kernel run it. Wave
// runs have one executor (waveExec): RunWaveRange runs one range of
// trials on it, and RunWaves shards a run over workers that each fold
// their trials into their own exact integer WavePartial, merged at the
// end. Integer sums make the merge order-free, so aggregates are
// byte-identical for any worker count, kernel or split into ranges —
// which is what makes parallel runs and resumed job sweeps trustworthy
// replacements for one sequential loop. Buffered replications are
// stored by trial index and reduced in index order. Fault injection
// obeys the same discipline: a Config.Faults plan is resampled per
// trial from the decorrelated stream NewFaultRand(seed, t) into
// worker-owned FaultStates, so degraded runs are reproducible from
// (seed, plan) alone and never perturb the traffic streams.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"minequiv/internal/sim"
)

// Config parametrizes one engine run.
type Config struct {
	Workers int    // goroutines; <= 0 means GOMAXPROCS
	Seed    uint64 // root seed; trial t uses stream NewRand(Seed, t)

	// Faults degrades the fabric: each trial samples the plan into a
	// worker-owned FaultState using the dedicated stream
	// NewFaultRand(Seed, t), so pinned faults hold for every trial,
	// random rates redraw per trial, traffic draws are untouched, and
	// aggregates remain byte-identical for any worker count. nil (or a
	// pointer to an empty plan) simulates the intact fabric.
	Faults *sim.FaultPlan

	// Kernel selects the unbuffered executor (see the Kernel type); the
	// zero value KernelAuto uses the bit-sliced kernel whenever the
	// fabric qualifies and the run fills a 64-wave batch. Results never
	// depend on the choice.
	Kernel Kernel
}

// faultPlan returns the active plan, or nil for an intact run.
func (c Config) faultPlan() *sim.FaultPlan {
	if c.Faults == nil || c.Faults.Empty() {
		return nil
	}
	return c.Faults
}

func (c Config) workers(trials int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > trials {
		w = trials
	}
	return w
}

// shard runs fn(t) for every t in [0, trials) across cfg.workers(trials)
// workers, each worker claiming trial indices from a shared atomic
// counter after building its scratch with scratch(wk), wk its index in
// [0, cfg.workers(trials)). fn must write its result into per-index or
// per-worker storage; the first error aborts remaining trials. Cancelling ctx
// stops every worker at its next trial boundary (a single trial is
// never interrupted mid-flight) and ctx.Err() is returned.
func shard(ctx context.Context, cfg Config, trials int, scratch func(wk int) any, fn func(t int, scratch any) error) error {
	nw := cfg.workers(trials)
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for wk := 0; wk < nw; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sc := scratch(wk)
			for !failed.Load() {
				if ctx.Err() != nil {
					return
				}
				t := int(next.Add(1)) - 1
				if t >= trials {
					return
				}
				if err := fn(t, sc); err != nil {
					errs[wk] = err
					failed.Store(true)
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// RunWaves pushes `waves` independent waves of the pattern through the
// fabric, sharded across cfg.Workers goroutines, and returns the exact
// partial aggregate of trials [0, waves); its Throughput method gives
// the pooled delivered/offered ratio with its confidence interval. The
// pattern must be a pure function of (dsts, rng) — every pattern in the
// sim registry is — since all workers share it with distinct buffers
// and rngs. Cancelling ctx aborts the run within one trial (one
// 64-trial batch under the bit-sliced kernel) and returns ctx.Err().
//
// RunWaves is a sharded fold of RunWaveRange's executor: each worker
// claims units of 64 trials (bit kernel) or one trial (scalar) and
// runs them on its own waveExec into its own WavePartial; the worker
// partials merge at the end. Merging is exact integer addition, so the
// result equals RunWaveRange(0, waves) for any worker count and either
// kernel.
func RunWaves(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, waves int, cfg Config) (WavePartial, error) {
	if waves <= 0 {
		return WavePartial{}, fmt.Errorf("engine: waves must be positive")
	}
	s, err := prepareWaves(f, pattern, waves, cfg)
	if err != nil {
		return WavePartial{}, err
	}
	unit := 1
	if s.useBit {
		unit = 64
	}
	type worker struct {
		exec *waveExec
		sum  WavePartial
	}
	units := (waves + unit - 1) / unit
	workers := make([]worker, cfg.workers(units))
	err = shard(ctx, cfg, units,
		func(wk int) any {
			w := &workers[wk]
			w.exec = s.newExec()
			return w
		},
		func(u int, scratch any) error {
			w := scratch.(*worker)
			return w.exec.run(ctx, u*unit, min(u*unit+unit, waves), &w.sum)
		})
	if err != nil {
		return WavePartial{}, err
	}
	var out WavePartial
	for i := range workers {
		out.Merge(workers[i].sum)
	}
	return out, nil
}

// BufferedStats aggregates independent replications of the buffered
// (multi-lane FIFO store-and-forward) model.
type BufferedStats struct {
	Replications int
	Injected     int
	Rejected     int
	Delivered    int
	Dropped      int // undeliverable packets discarded (non-Banyan fabrics, faults)
	FaultDropped int // subset of Dropped killed directly by faults
	Misrouted    int // wrong-terminal exits forced by stuck last-stage switches
	InFlight     int
	MaxOccupancy int   // largest single-lane queue length over all replications
	Throughput   Stats // per-replication delivered per terminal per cycle
	Latency      Stats // per-replication mean delivery latency, cycles
	LatencyP50   Stats // per-replication latency percentiles, cycles
	LatencyP95   Stats
	LatencyP99   Stats
	// StageOccupancy[s] is the mean over replications of the mean
	// packets queued at stage s per measured cycle.
	StageOccupancy []float64
}

// RunBuffered runs `reps` independent replications of the buffered model
// (distinct rng streams, same configuration), sharded across workers.
// Each worker owns one reused BufferedRunner — the simulation's cycle
// loop allocates nothing; per trial only the derived rng is allocated.
// Trial t always uses the stream NewRand(cfg.Seed, t) and reduction is
// by trial index, keeping the aggregates byte-identical for any worker
// count. Cancelling ctx aborts the run within one simulated cycle and
// returns ctx.Err().
func RunBuffered(ctx context.Context, f *sim.Fabric, bc sim.BufferedConfig, reps int, cfg Config) (BufferedStats, error) {
	if reps <= 0 {
		return BufferedStats{}, fmt.Errorf("engine: replications must be positive")
	}
	// Validate once, up front, without sizing any buffers; per-worker
	// construction below cannot fail for a valid config.
	if err := bc.Validate(); err != nil {
		return BufferedStats{}, err
	}
	plan := cfg.faultPlan()
	if plan != nil {
		if err := plan.Validate(f); err != nil {
			return BufferedStats{}, err
		}
	}
	// Same discipline as the wave executor: pinned-only plans sample
	// once per worker, random rates resample per trial from the fault
	// stream.
	resample := plan != nil && plan.Random()
	type bufScratch struct {
		runner *sim.BufferedRunner
		faults *sim.FaultState
	}
	results := make([]sim.BufferedResult, reps)
	// One flat per-trial occupancy buffer: each trial copies the
	// runner-owned StageOccupancy into its own slot so the worker's
	// next replication cannot overwrite it, without per-trial allocs.
	occ := make([]float64, reps*f.Spans)
	err := shard(ctx, cfg, reps,
		func(int) any {
			r, _ := f.NewBufferedRunner(bc)
			sc := &bufScratch{runner: r}
			if plan != nil {
				sc.faults = f.NewFaultState()
				_ = r.SetFaults(sc.faults)
				if !resample {
					sc.faults.Resample(*plan, nil)
				}
			}
			return sc
		},
		func(t int, scratch any) error {
			sc := scratch.(*bufScratch)
			if resample {
				sc.faults.Resample(*plan, NewFaultRand(cfg.Seed, uint64(t)))
			}
			res, err := sc.runner.RunContext(ctx, NewRand(cfg.Seed, uint64(t)))
			if err != nil {
				return err
			}
			copy(occ[t*f.Spans:(t+1)*f.Spans], res.StageOccupancy)
			res.StageOccupancy = nil
			results[t] = res
			return nil
		})
	if err != nil {
		return BufferedStats{}, err
	}
	out := BufferedStats{Replications: reps, StageOccupancy: make([]float64, f.Spans)}
	throughputs := make([]float64, reps)
	latencies := make([]float64, reps)
	p50s := make([]float64, reps)
	p95s := make([]float64, reps)
	p99s := make([]float64, reps)
	for t, r := range results {
		out.Injected += r.Injected
		out.Rejected += r.Rejected
		out.Delivered += r.Delivered
		out.Dropped += r.Dropped
		out.FaultDropped += r.FaultDropped
		out.Misrouted += r.Misrouted
		out.InFlight += r.InFlight
		if r.MaxOccupancy > out.MaxOccupancy {
			out.MaxOccupancy = r.MaxOccupancy
		}
		throughputs[t] = r.Throughput
		latencies[t] = r.MeanLatency
		p50s[t] = float64(r.P50)
		p95s[t] = float64(r.P95)
		p99s[t] = float64(r.P99)
		for s := 0; s < f.Spans; s++ {
			out.StageOccupancy[s] += occ[t*f.Spans+s]
		}
	}
	for s := range out.StageOccupancy {
		out.StageOccupancy[s] /= float64(reps)
	}
	out.Throughput = summarize(throughputs)
	out.Latency = summarize(latencies)
	out.LatencyP50 = summarize(p50s)
	out.LatencyP95 = summarize(p95s)
	out.LatencyP99 = summarize(p99s)
	return out, nil
}
