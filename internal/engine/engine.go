// Package engine is the parallel trial runner on top of internal/sim:
// it shards independent wave simulations (and buffered-model
// replications) across workers, gives each trial its own
// deterministically-derived PCG stream and each worker its own reusable
// scratch state, and aggregates delivered/dropped/latency statistics
// with means and confidence intervals.
//
// Determinism is the core contract: trial t always runs with the rng
// NewRand(seed, t) and per-trial results are stored by index, then
// reduced sequentially in index order. Aggregate statistics are
// therefore byte-identical for any worker count, which is what makes
// parallel runs trustworthy replacements for the old sequential loops.
// Fault injection obeys the same discipline: a Config.Faults plan is
// resampled per trial from the decorrelated stream NewFaultRand(seed, t)
// into worker-owned FaultStates, so degraded runs are reproducible from
// (seed, plan) alone and never perturb the traffic streams.
package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
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

// shard runs fn(t) for every t in [0, trials) across the configured
// worker count, each worker claiming trial indices from a shared atomic
// counter. fn must write its result into per-index storage; the first
// error aborts remaining trials. Cancelling ctx stops every worker at
// its next trial boundary (a single trial is never interrupted
// mid-flight) and ctx.Err() is returned.
func shard(ctx context.Context, cfg Config, trials int, scratch func() any, fn func(t int, scratch any) error) error {
	nw := cfg.workers(trials)
	var next atomic.Int64
	var failed atomic.Bool
	errs := make([]error, nw)
	var wg sync.WaitGroup
	for wk := 0; wk < nw; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			sc := scratch()
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

// WaveStats aggregates a sharded run of independent waves.
type WaveStats struct {
	Waves        int
	Offered      int
	Delivered    int
	Dropped      int
	Misrouted    int
	FaultDropped int // subset of Dropped killed directly by faults
	// Throughput is the pooled delivered/offered ratio (the quantity the
	// analytic blocking recurrence models), with dispersion from the
	// linearized ratio-estimator variance over waves. For patterns that
	// offer a constant packet count per wave this coincides with the
	// mean and sample std of per-wave delivered fractions; for variable
	// -load patterns (bernoulli, bursty) the pooled ratio weights every
	// packet equally instead of every wave.
	Throughput Stats
}

// waveTrial is one trial's counters, stored by trial index so reduction
// order (and therefore every aggregate) is worker-count independent.
type waveTrial struct{ offered, delivered, dropped, misrouted, faultDropped int }

// RunWaves pushes `waves` independent waves of the pattern through the
// fabric, sharded across cfg.Workers goroutines. The pattern must be a
// pure function of (dsts, rng) — every pattern in the sim registry is —
// since all workers share it with distinct buffers and rngs. Cancelling
// ctx aborts the run within one trial (one 64-trial batch under the
// bit-sliced kernel) and returns ctx.Err().
//
// Trial t always draws from the streams NewRand(Seed, t) and
// NewFaultRand(Seed, t) no matter which kernel executes it, and both
// kernels are byte-identical per stream, so aggregates are invariant
// under both worker count and kernel choice.
func RunWaves(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, waves int, cfg Config) (WaveStats, error) {
	if waves <= 0 {
		return WaveStats{}, fmt.Errorf("engine: waves must be positive")
	}
	plan := cfg.faultPlan()
	if plan != nil {
		if err := plan.Validate(f); err != nil {
			return WaveStats{}, err
		}
	}
	useBit := false
	switch cfg.Kernel {
	case KernelAuto:
		// Fewer than 64 waves never fill a bit-sliced batch: run them
		// scalar and leave the fabric's bit tables unbuilt.
		useBit = waves >= 64 && f.BitSliceable()
	case KernelScalar:
	case KernelBit:
		if !f.BitSliceable() {
			return WaveStats{}, fmt.Errorf(`engine: kernel "bit" requested but the fabric is not bit-sliceable (needs Banyan reachability and <= 16 stages)`)
		}
		useBit = true
	default:
		return WaveStats{}, fmt.Errorf("engine: unknown kernel %d", uint8(cfg.Kernel))
	}
	results := make([]waveTrial, waves)
	var err error
	if useBit {
		err = runWavesBit(ctx, f, pattern, waves, cfg, plan, results)
	} else {
		err = runWavesScalar(ctx, f, pattern, waves, cfg, plan, results)
	}
	if err != nil {
		return WaveStats{}, err
	}
	out := WaveStats{Waves: waves}
	for _, r := range results {
		out.Offered += r.offered
		out.Delivered += r.delivered
		out.Dropped += r.dropped
		out.Misrouted += r.misrouted
		out.FaultDropped += r.faultDropped
	}
	if out.Offered > 0 {
		m := float64(out.Delivered) / float64(out.Offered)
		// Linearized variance of the ratio-of-sums estimator:
		// Var(m) ~= n/(n-1) * sum_t (d_t - m*o_t)^2 / (sum_t o_t)^2.
		// Std is scaled so that Stats.CI95 = 1.96*Std/sqrt(N) yields
		// exactly 1.96*sqrt(Var); for constant offered load it reduces
		// to the sample std of per-wave delivered fractions.
		n := 0
		var sq float64
		for _, r := range results {
			if r.offered == 0 {
				continue
			}
			n++
			d := float64(r.delivered) - m*float64(r.offered)
			sq += d * d
		}
		st := Stats{N: n, Mean: m}
		if n > 1 {
			st.Std = float64(n) / float64(out.Offered) * math.Sqrt(sq/float64(n-1))
		}
		out.Throughput = st
	}
	return out, nil
}

// runWavesScalar executes one trial per shard unit with the scalar
// wave kernel. A pinned-only plan realizes identically every trial:
// sample it once per worker. Random rates resample per trial from the
// dedicated fault stream (the plan is already validated, so Resample
// suffices).
func runWavesScalar(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, waves int, cfg Config, plan *sim.FaultPlan, results []waveTrial) error {
	resample := plan != nil && plan.Random()
	type waveScratch struct {
		runner *sim.WaveRunner
		faults *sim.FaultState
	}
	return shard(ctx, cfg, waves,
		func() any {
			sc := &waveScratch{runner: f.NewWaveRunner()}
			if plan != nil {
				sc.faults = f.NewFaultState()
				_ = sc.runner.SetFaults(sc.faults)
				if !resample {
					sc.faults.Resample(*plan, nil)
				}
			}
			return sc
		},
		func(t int, scratch any) error {
			sc := scratch.(*waveScratch)
			if resample {
				sc.faults.Resample(*plan, NewFaultRand(cfg.Seed, uint64(t)))
			}
			res, err := sc.runner.RunTraffic(pattern, NewRand(cfg.Seed, uint64(t)))
			if err != nil {
				return err
			}
			results[t] = waveTrial{res.Offered, res.Delivered, res.Dropped, res.Misrouted, res.FaultDropped}
			return nil
		})
}

// runWavesBit executes the trials in 64-wide batches with the
// bit-sliced kernel: shard unit u covers trials [64u, 64u+64), lane j
// of the batch running trial 64u+j on its own reseeded PCG — the exact
// NewRand/NewFaultRand streams the scalar executor would use, so the
// per-trial results are byte-identical to runWavesScalar's. A trailing
// remainder of fewer than 64 waves runs through the worker's scalar
// runner inside the final unit (the kernels mix freely for the same
// reason). All per-batch work — PCG reseeding, fault refolds, the
// kernel itself — is allocation-free.
func runWavesBit(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, waves int, cfg Config, plan *sim.FaultPlan, results []waveTrial) error {
	resample := plan != nil && plan.Random()
	batches := waves / 64
	units := batches
	if waves%64 != 0 {
		units++
	}
	froot := FaultRoot(cfg.Seed)
	type bitScratch struct {
		bit    *sim.BitWaveRunner
		scalar *sim.WaveRunner
		faults *sim.FaultState
		bits   *sim.BitFaultState
		pcg    [64]rand.PCG
		rngs   [64]*rand.Rand
		fpcg   rand.PCG
		frng   *rand.Rand
	}
	return shard(ctx, cfg, units,
		func() any {
			sc := &bitScratch{scalar: f.NewWaveRunner()}
			sc.bit, _ = f.NewBitWaveRunner() // BitSliceable was checked by RunWaves
			for j := range sc.rngs {
				sc.rngs[j] = rand.New(&sc.pcg[j])
			}
			sc.frng = rand.New(&sc.fpcg)
			if plan != nil {
				sc.faults = f.NewFaultState()
				sc.bits = f.NewBitFaultState()
				_ = sc.scalar.SetFaults(sc.faults)
				_ = sc.bit.SetFaults(sc.bits)
				if !resample {
					sc.faults.Resample(*plan, nil)
					_ = sc.bits.SetAll(sc.faults)
				}
			}
			return sc
		},
		func(u int, scratch any) error {
			sc := scratch.(*bitScratch)
			t0 := u * 64
			if u == batches {
				// Remainder unit: fewer than 64 trailing waves, scalar.
				for t := t0; t < waves; t++ {
					if resample {
						sc.fpcg.Seed(SeedPair(froot, uint64(t)))
						sc.faults.Resample(*plan, sc.frng)
					}
					sc.pcg[0].Seed(SeedPair(cfg.Seed, uint64(t)))
					res, err := sc.scalar.RunTraffic(pattern, sc.rngs[0])
					if err != nil {
						return err
					}
					results[t] = waveTrial{res.Offered, res.Delivered, res.Dropped, res.Misrouted, res.FaultDropped}
				}
				return nil
			}
			for j := 0; j < 64; j++ {
				sc.pcg[j].Seed(SeedPair(cfg.Seed, uint64(t0+j)))
			}
			if resample {
				for j := 0; j < 64; j++ {
					sc.fpcg.Seed(SeedPair(froot, uint64(t0+j)))
					sc.faults.Resample(*plan, sc.frng)
					if err := sc.bits.SetLane(j, sc.faults); err != nil {
						return err
					}
				}
			}
			res, err := sc.bit.RunTraffic(pattern, sc.rngs[:])
			if err != nil {
				return err
			}
			for j := 0; j < 64; j++ {
				results[t0+j] = waveTrial{res.Offered[j], res.Delivered[j], res.Dropped[j], res.Misrouted[j], res.FaultDropped[j]}
			}
			return nil
		})
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
	// Same discipline as RunWaves: pinned-only plans sample once per
	// worker, random rates resample per trial from the fault stream.
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
		func() any {
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
