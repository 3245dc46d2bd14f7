package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"minequiv/internal/sim"
)

// WavePartial is the exact partial aggregate of a contiguous trial
// range [Lo, Hi) of a wave run. Every field is an integer sum of
// per-trial counters, so merging partials is exact and associative:
// any split of [0, waves) into ranges, run in any order on any
// machine, merges to the same WavePartial — which is what lets a
// checkpointed sweep resume after a crash and still produce results
// byte-identical to an uninterrupted run (the jobs plane's core
// contract; see internal/jobs).
//
// The three quadratic sums carry what the linearized ratio-estimator
// variance needs: with m = Delivered/Offered,
//
//	sq = Σ_t (d_t − m·o_t)² = SumDD − 2m·SumDO + m²·SumOO
//
// and per-trial counts are bounded by the terminal count (≤ 2^16), so
// the products fit int64 exactly for > 10^9 trials — no floating-point
// accumulation order can leak into the result.
type WavePartial struct {
	Lo           int   `json:"lo"` // trial range [Lo, Hi)
	Hi           int   `json:"hi"`
	Offered      int64 `json:"offered"`
	Delivered    int64 `json:"delivered"`
	Dropped      int64 `json:"dropped"`
	Misrouted    int64 `json:"misrouted"`
	FaultDropped int64 `json:"faultDropped"`
	NonEmpty     int64 `json:"nonEmpty"` // trials with Offered > 0
	SumDD        int64 `json:"sumDD"`    // Σ delivered²
	SumDO        int64 `json:"sumDO"`    // Σ delivered·offered
	SumOO        int64 `json:"sumOO"`    // Σ offered²
}

// Trials returns the number of trials the partial covers.
func (p WavePartial) Trials() int { return p.Hi - p.Lo }

// add folds one trial's counters in.
func (p *WavePartial) add(offered, delivered, dropped, misrouted, faultDropped int) {
	o, d := int64(offered), int64(delivered)
	p.Offered += o
	p.Delivered += d
	p.Dropped += int64(dropped)
	p.Misrouted += int64(misrouted)
	p.FaultDropped += int64(faultDropped)
	if o > 0 {
		p.NonEmpty++
	}
	p.SumDD += d * d
	p.SumDO += d * o
	p.SumOO += o * o
}

// Merge folds q into p. Merging is exact integer addition, so the
// result is independent of merge order; the range bounds extend to
// cover both operands (merging non-adjacent ranges is allowed — the
// sums stay correct, only the [Lo, Hi) annotation turns into a hull).
func (p *WavePartial) Merge(q WavePartial) {
	if q.Trials() == 0 {
		return
	}
	if p.Trials() == 0 {
		*p = q
		return
	}
	p.cover(q.Lo, q.Hi)
	p.Offered += q.Offered
	p.Delivered += q.Delivered
	p.Dropped += q.Dropped
	p.Misrouted += q.Misrouted
	p.FaultDropped += q.FaultDropped
	p.NonEmpty += q.NonEmpty
	p.SumDD += q.SumDD
	p.SumDO += q.SumDO
	p.SumOO += q.SumOO
}

// cover extends p's range to the hull of itself and [lo, hi).
func (p *WavePartial) cover(lo, hi int) {
	if p.Trials() == 0 {
		p.Lo, p.Hi = lo, hi
		return
	}
	p.Lo, p.Hi = min(p.Lo, lo), max(p.Hi, hi)
}

// Throughput finalizes the pooled delivered/offered ratio (the
// quantity the analytic blocking recurrence models) with the
// linearized ratio-estimator dispersion, computed from the exact sums:
// Var(m) ~= n/(n-1) * sq / Offered², with Std scaled so that
// Stats.CI95 = 1.96*Std/sqrt(N) yields exactly 1.96*sqrt(Var). For
// patterns that offer a constant packet count per wave this is the
// mean and sample std of per-wave delivered fractions; for
// variable-load patterns (bernoulli, bursty) the pooled ratio weights
// every packet equally instead of every wave. Being a pure function of
// the integer sums, it is the same for every surface that merges the
// same trials.
func (p WavePartial) Throughput() Stats {
	if p.Offered == 0 {
		return Stats{}
	}
	m := float64(p.Delivered) / float64(p.Offered)
	st := Stats{N: int(p.NonEmpty), Mean: m}
	if st.N > 1 {
		sq := float64(p.SumDD) - 2*m*float64(p.SumDO) + m*m*float64(p.SumOO)
		if sq < 0 {
			sq = 0 // the exact value is ≥ 0; clamp float cancellation noise
		}
		st.Std = float64(st.N) / float64(p.Offered) * math.Sqrt(sq/float64(st.N-1))
	}
	return st
}

// RunWaveRange runs the trials [lo, hi) of the wave run defined by
// (cfg.Seed, pattern, cfg.Faults) and returns their exact partial
// aggregate. It is the executor RunWaves shards, so any partition of
// [0, waves) into ranges merges to RunWaves' result — regardless of
// which process ran which range, in what order, or how many times it
// was retried in between.
//
// The range is executed sequentially on the calling goroutine: the
// shard IS the unit of parallelism for callers like the jobs plane,
// which runs many ranges concurrently on its own workers. Cancelling
// ctx aborts between trials (between 64-trial batches under the
// bit-sliced kernel) and returns ctx.Err().
func RunWaveRange(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, lo, hi int, cfg Config) (WavePartial, error) {
	if lo < 0 || hi <= lo {
		return WavePartial{}, fmt.Errorf("engine: bad trial range [%d,%d)", lo, hi)
	}
	s, err := prepareWaves(f, pattern, hi-lo, cfg)
	if err != nil {
		return WavePartial{}, err
	}
	var p WavePartial
	if err := s.newExec().run(ctx, lo, hi, &p); err != nil {
		return WavePartial{}, err
	}
	return p, nil
}

// waveSetup is a validated wave run: what every trial shares, and
// whether whole 64-trial batches take the bit-sliced kernel.
type waveSetup struct {
	f        *sim.Fabric
	pattern  sim.Traffic
	seed     uint64
	plan     *sim.FaultPlan // nil for an intact run
	resample bool           // the plan has random rates: redraw per trial
	froot    uint64         // FaultRoot(seed), set when resample
	useBit   bool
}

// prepareWaves validates cfg's fault plan and kernel choice for a run
// of `trials` trials on f.
func prepareWaves(f *sim.Fabric, pattern sim.Traffic, trials int, cfg Config) (waveSetup, error) {
	s := waveSetup{f: f, pattern: pattern, seed: cfg.Seed, plan: cfg.faultPlan()}
	if s.plan != nil {
		if err := s.plan.Validate(f); err != nil {
			return waveSetup{}, err
		}
		s.resample = s.plan.Random()
		s.froot = FaultRoot(cfg.Seed)
	}
	switch cfg.Kernel {
	case KernelAuto:
		// Fewer than 64 trials never fill a bit-sliced batch: run them
		// scalar and leave the fabric's bit tables unbuilt.
		s.useBit = trials >= 64 && f.BitSliceable()
	case KernelScalar:
	case KernelBit:
		if !f.BitSliceable() {
			return waveSetup{}, fmt.Errorf(`engine: kernel "bit" requested but the fabric is not bit-sliceable (needs Banyan reachability and <= 16 stages)`)
		}
		s.useBit = true
	default:
		return waveSetup{}, fmt.Errorf("engine: unknown kernel %d", uint8(cfg.Kernel))
	}
	return s, nil
}

// waveExec is one worker's reusable state for a wave run: the scalar
// runner, the bit runner when the run uses the bit kernel, the fault
// states, and PCGs reseeded in place per trial, so running trials
// allocates nothing.
type waveExec struct {
	waveSetup
	scalar *sim.WaveRunner
	bit    *sim.BitWaveRunner // nil unless the run uses the bit kernel
	faults *sim.FaultState    // nil for an intact run
	bits   *sim.BitFaultState // nil unless both faults and bit
	pcg    []rand.PCG         // traffic streams: 64 lanes under the bit kernel, else 1
	rngs   []*rand.Rand
	pcg1   [1]rand.PCG // backs pcg and rngs on the scalar kernel
	rng1   [1]*rand.Rand
	fpcg   rand.PCG // fault stream, used only when resample
	frng   *rand.Rand
}

func (s waveSetup) newExec() *waveExec {
	e := &waveExec{waveSetup: s, scalar: s.f.NewWaveRunner()}
	e.pcg, e.rngs = e.pcg1[:], e.rng1[:]
	if s.useBit {
		e.bit, _ = s.f.NewBitWaveRunner() // prepareWaves checked BitSliceable
		e.pcg, e.rngs = make([]rand.PCG, 64), make([]*rand.Rand, 64)
	}
	for j := range e.rngs {
		e.rngs[j] = rand.New(&e.pcg[j])
	}
	if s.plan == nil {
		return e
	}
	e.faults = s.f.NewFaultState()
	_ = e.scalar.SetFaults(e.faults)
	if e.bit != nil {
		e.bits = s.f.NewBitFaultState()
		_ = e.bit.SetFaults(e.bits)
	}
	if s.resample {
		e.frng = rand.New(&e.fpcg)
	} else {
		// A pinned-only plan realizes identically every trial: sample
		// it once (the plan is validated, so Resample suffices).
		e.faults.Resample(*s.plan, nil)
		if e.bits != nil {
			_ = e.bits.SetAll(e.faults)
		}
	}
	return e
}

// run executes the trials [lo, hi) and folds them into p, extending
// p's range to cover them: whole 64-trial batches on the bit kernel
// first, then the rest one trial at a time on the scalar kernel. Lane j of a batch starting at t0 runs trial t0+j on the
// exact streams NewRand(seed, t0+j) and NewFaultRand(seed, t0+j) the
// scalar kernel would use, and both kernels are byte-identical per
// stream, so the partial depends on neither the kernel nor where the
// batches start.
func (e *waveExec) run(ctx context.Context, lo, hi int, p *WavePartial) error {
	p.cover(lo, hi)
	t := lo
	for ; e.bit != nil && t+64 <= hi; t += 64 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := e.batch(t, p); err != nil {
			return err
		}
	}
	for ; t < hi; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.resample {
			e.sampleFaults(t)
		}
		e.pcg[0].Seed(SeedPair(e.seed, uint64(t)))
		res, err := e.scalar.RunTraffic(e.pattern, e.rngs[0])
		if err != nil {
			return err
		}
		p.add(res.Offered, res.Delivered, res.Dropped, res.Misrouted, res.FaultDropped)
	}
	return nil
}

// batch runs the trials [t, t+64) as one bit-kernel batch into p. It
// is a function of its own so the kernel's 64-lane result stays off
// run's stack frame, which every worker carries on the scalar kernel.
func (e *waveExec) batch(t int, p *WavePartial) error {
	for j := range e.pcg {
		e.pcg[j].Seed(SeedPair(e.seed, uint64(t+j)))
		if e.resample {
			e.sampleFaults(t + j)
			if err := e.bits.SetLane(j, e.faults); err != nil {
				return err
			}
		}
	}
	res, err := e.bit.RunTraffic(e.pattern, e.rngs)
	if err != nil {
		return err
	}
	for j := range e.pcg {
		p.add(res.Offered[j], res.Delivered[j], res.Dropped[j], res.Misrouted[j], res.FaultDropped[j])
	}
	return nil
}

// sampleFaults redraws the random plan for trial t from its fault
// stream NewFaultRand(seed, t).
func (e *waveExec) sampleFaults(t int) {
	e.fpcg.Seed(SeedPair(e.froot, uint64(t)))
	e.faults.Resample(*e.plan, e.frng)
}
