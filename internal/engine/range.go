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
	if q.Lo < p.Lo {
		p.Lo = q.Lo
	}
	if q.Hi > p.Hi {
		p.Hi = q.Hi
	}
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

// Throughput finalizes the pooled delivered/offered ratio with the
// linearized ratio-estimator dispersion, computed from the exact sums
// (same estimator as RunWaves; the only difference is that the
// quadratic expansion here is exact where RunWaves accumulates the
// residuals in floating point, so the two can differ in the last ulp
// of Std — the mean is bit-equal).
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
// aggregate. Trial t draws from the same NewRand(Seed, t) and
// NewFaultRand(Seed, t) streams RunWaves uses, for either kernel, so
// any partition of [0, waves) into ranges merges to the aggregate of
// one full run — regardless of which process ran which range, in what
// order, or how many times it was retried in between.
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
	plan := cfg.faultPlan()
	if plan != nil {
		if err := plan.Validate(f); err != nil {
			return WavePartial{}, err
		}
	}
	useBit := false
	switch cfg.Kernel {
	case KernelAuto:
		// As in RunWaves: a range shorter than one 64-trial batch runs
		// scalar and never builds the fabric's bit tables.
		useBit = hi-lo >= 64 && f.BitSliceable()
	case KernelScalar:
	case KernelBit:
		if !f.BitSliceable() {
			return WavePartial{}, fmt.Errorf(`engine: kernel "bit" requested but the fabric is not bit-sliceable (needs Banyan reachability and <= 16 stages)`)
		}
		useBit = true
	default:
		return WavePartial{}, fmt.Errorf("engine: unknown kernel %d", uint8(cfg.Kernel))
	}
	if useBit {
		return runRangeBit(ctx, f, pattern, lo, hi, cfg, plan)
	}
	return runRangeScalar(ctx, f, pattern, lo, hi, cfg, plan)
}

// runRangeScalar walks the range one trial at a time on the scalar
// kernel, following the same fault-sampling discipline as
// runWavesScalar: pinned-only plans sample once, random rates resample
// per trial from the dedicated fault stream.
func runRangeScalar(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, lo, hi int, cfg Config, plan *sim.FaultPlan) (WavePartial, error) {
	resample := plan != nil && plan.Random()
	runner := f.NewWaveRunner()
	var faults *sim.FaultState
	if plan != nil {
		faults = f.NewFaultState()
		_ = runner.SetFaults(faults)
		if !resample {
			faults.Resample(*plan, nil)
		}
	}
	p := WavePartial{Lo: lo, Hi: hi}
	for t := lo; t < hi; t++ {
		if err := ctx.Err(); err != nil {
			return WavePartial{}, err
		}
		if resample {
			faults.Resample(*plan, NewFaultRand(cfg.Seed, uint64(t)))
		}
		res, err := runner.RunTraffic(pattern, NewRand(cfg.Seed, uint64(t)))
		if err != nil {
			return WavePartial{}, err
		}
		p.add(res.Offered, res.Delivered, res.Dropped, res.Misrouted, res.FaultDropped)
	}
	return p, nil
}

// runRangeBit executes the range in 64-wide batches on the bit-sliced
// kernel, lane j of a batch starting at t0 running trial t0+j on the
// exact NewRand/NewFaultRand streams the scalar kernel would use; a
// trailing remainder shorter than 64 trials runs scalar. Batches are
// anchored at lo (not at multiples of 64): per-trial byte-identity is
// a property of the reseeded streams, so batch alignment cannot leak
// into the sums.
func runRangeBit(ctx context.Context, f *sim.Fabric, pattern sim.Traffic, lo, hi int, cfg Config, plan *sim.FaultPlan) (WavePartial, error) {
	resample := plan != nil && plan.Random()
	bit, err := f.NewBitWaveRunner()
	if err != nil {
		return WavePartial{}, err
	}
	scalar := f.NewWaveRunner()
	var (
		faults *sim.FaultState
		bits   *sim.BitFaultState
	)
	if plan != nil {
		faults = f.NewFaultState()
		bits = f.NewBitFaultState()
		_ = scalar.SetFaults(faults)
		_ = bit.SetFaults(bits)
		if !resample {
			faults.Resample(*plan, nil)
			_ = bits.SetAll(faults)
		}
	}
	froot := FaultRoot(cfg.Seed)
	var pcg [64]rand.PCG
	var rngs [64]*rand.Rand
	for j := range rngs {
		rngs[j] = rand.New(&pcg[j])
	}
	var fpcg rand.PCG
	frng := rand.New(&fpcg)

	p := WavePartial{Lo: lo, Hi: hi}
	t0 := lo
	for ; t0+64 <= hi; t0 += 64 {
		if err := ctx.Err(); err != nil {
			return WavePartial{}, err
		}
		for j := 0; j < 64; j++ {
			pcg[j].Seed(SeedPair(cfg.Seed, uint64(t0+j)))
		}
		if resample {
			for j := 0; j < 64; j++ {
				fpcg.Seed(SeedPair(froot, uint64(t0+j)))
				faults.Resample(*plan, frng)
				if err := bits.SetLane(j, faults); err != nil {
					return WavePartial{}, err
				}
			}
		}
		res, err := bit.RunTraffic(pattern, rngs[:])
		if err != nil {
			return WavePartial{}, err
		}
		for j := 0; j < 64; j++ {
			p.add(res.Offered[j], res.Delivered[j], res.Dropped[j], res.Misrouted[j], res.FaultDropped[j])
		}
	}
	for t := t0; t < hi; t++ {
		if err := ctx.Err(); err != nil {
			return WavePartial{}, err
		}
		if resample {
			fpcg.Seed(SeedPair(froot, uint64(t)))
			faults.Resample(*plan, frng)
		}
		pcg[0].Seed(SeedPair(cfg.Seed, uint64(t)))
		res, err := scalar.RunTraffic(pattern, rngs[0])
		if err != nil {
			return WavePartial{}, err
		}
		p.add(res.Offered, res.Delivered, res.Dropped, res.Misrouted, res.FaultDropped)
	}
	return p, nil
}
