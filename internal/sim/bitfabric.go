package sim

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"minequiv/internal/bitops"
)

// This file is the bit-sliced wave kernel: 64 independent Monte Carlo
// waves packed as bit-planes in uint64 lanes (lane j = wave j) and
// steered through the whole fabric with word-parallel boolean algebra.
// A 2x2 crossbar decision is exactly one routing-tag bit plus one
// conflict bit, so one pass over the H cells of a stage — a handful of
// AND/OR/XOR per cell — advances all 64 waves at once.
//
// The kernel is byte-identical to the scalar WaveRunner by
// construction, not by luck; three contracts make that hold:
//
//  1. Tag planes. BitSliceable fabrics are Banyan (unique-path), so a
//     packet's whole port schedule is fixed by its (src, dst) pair.
//     On a tag fabric it is the destination's Fabric.tag with each
//     visited cell's flip (bit s of its key) applied at stage s: the
//     kernel gathers the source-independent N-entry tag and XORs the
//     flip into the port planes cell by cell. On a dense fabric it is
//     the Fabric.pathTag of the pair, built on the fabric's first
//     NewBitWaveRunner, and no flip applies. Either way the port at
//     stage s is the one the scalar steer returns. Plane tag[s]
//     carries tag bit s for every in-flight lane, indexed by current
//     inlink.
//  2. Salt tie-breaks. Conflicts are strictly between the two inlinks
//     of one cell, so one salt bit per (stage, cell) — drawn as
//     ceil(H/64) uint64 words per stage from the wave's own rng, the
//     exact stream shape WaveRunner.RunWave consumes — picks the
//     winning inlink parity. The per-wave draws land row-major (one
//     word per wave) and are pivoted to per-cell lane words with
//     bitops.Transpose64.
//  3. Fault folding. A BitFaultState holds per-(stage, element) lane
//     masks for dead/stuck0/stuck1 switches and severed links, folded
//     lane-by-lane from sampled FaultStates. The per-cell algebra
//     applies them in the scalar steer's exact precedence: dead kills
//     first (FaultDropped), an upstream-derailed arrival drops next
//     (plain drop — its cell cannot reach its destination in a Banyan
//     fabric), stuck forces the port plane (derailing lanes whose tag
//     bit disagrees), a severed chosen outlink kills (FaultDropped),
//     and only then surviving conflicts are arbitrated.
//
// Derailment replaces the scalar's portUnreachable lookup: in a
// unique-path fabric a packet knocked off its path can never reach its
// destination, so a derailed lane is dropped on arrival at the next
// stage (unless a dead switch there upgrades the kill to FaultDropped)
// and a lane derailed at the last stage exits a wrong terminal —
// Misrouted, exactly the scalar classification.

// BitFaultState is the bit-sliced counterpart of up to 64 FaultStates:
// per-(stage, cell) lane masks for dead/stuck switches and per-(stage,
// outlink) masks for severed links. Fold realized FaultStates in with
// SetLane (one trial per lane) or SetAll (one realization broadcast to
// every lane). Not safe for concurrent use; the engine gives each
// worker its own, like runner scratch.
type BitFaultState struct {
	f        *Fabric
	dead     []uint64 // per stage*H + cell: lanes whose switch is dead
	stuck0   []uint64 // per stage*H + cell: lanes stuck toward port 0
	stuck1   []uint64 // per stage*H + cell: lanes stuck toward port 1
	linkDown []uint64 // per stage*N + outlink: lanes with the link severed
}

// NewBitFaultState returns a cleared (all lanes intact) bit fault state
// sized for f.
func (f *Fabric) NewBitFaultState() *BitFaultState {
	return &BitFaultState{
		f:        f,
		dead:     make([]uint64, f.Spans*f.H),
		stuck0:   make([]uint64, f.Spans*f.H),
		stuck1:   make([]uint64, f.Spans*f.H),
		linkDown: make([]uint64, f.Spans*f.N),
	}
}

// Fabric returns the fabric this state is sized for.
func (bf *BitFaultState) Fabric() *Fabric { return bf.f }

// Reset clears every lane to the intact fabric.
func (bf *BitFaultState) Reset() {
	clear(bf.dead)
	clear(bf.stuck0)
	clear(bf.stuck1)
	clear(bf.linkDown)
}

// SetLane folds one realized FaultState into lane `lane`, replacing
// whatever that lane held (other lanes are untouched); a nil or
// inactive state clears the lane. The state must belong to the same
// fabric. Allocation-free.
func (bf *BitFaultState) SetLane(lane int, fs *FaultState) error {
	if lane < 0 || lane >= 64 {
		return fmt.Errorf("sim: lane %d out of [0,64)", lane)
	}
	if fs != nil && fs.f != bf.f {
		return fmt.Errorf("sim: fault state belongs to a different fabric")
	}
	bit := uint64(1) << uint(lane)
	if fs == nil || !fs.active {
		for i := range bf.dead {
			bf.dead[i] &^= bit
			bf.stuck0[i] &^= bit
			bf.stuck1[i] &^= bit
		}
		for i := range bf.linkDown {
			bf.linkDown[i] &^= bit
		}
		return nil
	}
	for i, m := range fs.mode {
		bf.dead[i] &^= bit
		bf.stuck0[i] &^= bit
		bf.stuck1[i] &^= bit
		switch m {
		case switchDead:
			bf.dead[i] |= bit
		case switchStuck0:
			bf.stuck0[i] |= bit
		case switchStuck1:
			bf.stuck1[i] |= bit
		}
	}
	for i, down := range fs.linkDown {
		if down {
			bf.linkDown[i] |= bit
		} else {
			bf.linkDown[i] &^= bit
		}
	}
	return nil
}

// SetAll broadcasts one realized FaultState to all 64 lanes (a pinned-
// only fault plan realizes identically every trial). A nil or inactive
// state clears everything. Allocation-free.
func (bf *BitFaultState) SetAll(fs *FaultState) error {
	if fs != nil && fs.f != bf.f {
		return fmt.Errorf("sim: fault state belongs to a different fabric")
	}
	if fs == nil || !fs.active {
		bf.Reset()
		return nil
	}
	for i, m := range fs.mode {
		bf.dead[i], bf.stuck0[i], bf.stuck1[i] = 0, 0, 0
		switch m {
		case switchDead:
			bf.dead[i] = ^uint64(0)
		case switchStuck0:
			bf.stuck0[i] = ^uint64(0)
		case switchStuck1:
			bf.stuck1[i] = ^uint64(0)
		}
	}
	for i, down := range fs.linkDown {
		if down {
			bf.linkDown[i] = ^uint64(0)
		} else {
			bf.linkDown[i] = 0
		}
	}
	return nil
}

// BitWaveResult reports one batch of up to 64 waves steered by a
// BitWaveRunner. Per-lane counters are indexed by lane (= position in
// the rngs slice handed to RunTraffic); lanes beyond the batch size are
// zero. DropStage is pooled across lanes and owned by the runner —
// overwritten by the next call, copy it if it must outlive the batch.
type BitWaveResult struct {
	Lanes        int
	Offered      [64]int
	Delivered    [64]int
	Dropped      [64]int
	Misrouted    [64]int
	FaultDropped [64]int
	DropStage    []int
}

// BitWaveRunner owns the bit-plane scratch of the bit-sliced wave
// kernel: tag planes (one per stage bit), live/derail planes, their
// double buffers, the salt block and per-lane counters. Like a
// WaveRunner it is allocation-free in steady state and NOT safe for
// concurrent use; create one per goroutine.
type BitWaveRunner struct {
	f      *Fabric
	faults *BitFaultState // nil = intact (the fabric's shared zero masks)

	tag, tagN   [][]uint64 // [Spans][N]: plane b, bit j = port at stage b of lane j's packet on this inlink
	live, liveN []uint64   // [N]: lanes with an in-flight packet on this inlink
	der, derN   []uint64   // [N]: subset of live knocked off its path by a stuck switch
	saltBlk     []uint64   // [Spans*ceil(H/64)*64]: tie-break salt, transposed to per-cell lane words
	dsts        []int      // per-wave destination buffer
	dstAll      []int32    // [N*64]: dstAll[src*64+j] = lane j's destination from src (-1 idle)

	dropStage                                 []int
	offered, dropped, misrouted, faultDropped [64]int
}

// NewBitWaveRunner returns a bit-sliced runner for f, or an error when
// the fabric does not qualify (see Fabric.BitSliceable). The first call
// on a fabric builds its bit tables: the shared fault masks and, on a
// dense fabric only, the path tags (O(N^2) time, 2*N^2 bytes); later
// calls, concurrent ones included, share them.
func (f *Fabric) NewBitWaveRunner() (*BitWaveRunner, error) {
	if !f.BitSliceable() {
		return nil, fmt.Errorf("sim: fabric is not bit-sliceable (kernel needs Banyan reachability and <= 16 stages)")
	}
	f.bitTables()
	r := &BitWaveRunner{
		f:         f,
		tag:       make([][]uint64, f.Spans),
		tagN:      make([][]uint64, f.Spans),
		live:      make([]uint64, f.N),
		liveN:     make([]uint64, f.N),
		der:       make([]uint64, f.N),
		derN:      make([]uint64, f.N),
		saltBlk:   make([]uint64, f.Spans*((f.H+63)/64)*64),
		dsts:      make([]int, f.N),
		dstAll:    make([]int32, f.N*64),
		dropStage: make([]int, f.Spans),
	}
	for b := range r.tag {
		r.tag[b] = make([]uint64, f.N)
		r.tagN[b] = make([]uint64, f.N)
	}
	return r, nil
}

// Fabric returns the fabric this runner simulates.
func (r *BitWaveRunner) Fabric() *Fabric { return r.f }

// SetFaults attaches per-lane fault masks consulted on every cell; nil
// restores the intact fabric on all lanes. The state must have been
// created by the runner's own fabric; the caller keeps ownership and
// may refold lanes between batches (the engine refolds per batch).
func (r *BitWaveRunner) SetFaults(bf *BitFaultState) error {
	if bf != nil && bf.f != r.f {
		return fmt.Errorf("sim: bit fault state belongs to a different fabric")
	}
	r.faults = bf
	return nil
}

// RunTraffic steers one batch of len(rngs) waves (1 to 64) through the
// fabric: lane j's wave draws its destinations and tie-break salt from
// rngs[j] in exactly the order WaveRunner.RunTraffic consumes one rng,
// so lane j reproduces the scalar wave of the same stream bit for bit.
// Allocation-free in steady state.
func (r *BitWaveRunner) RunTraffic(pattern Traffic, rngs []*rand.Rand) (BitWaveResult, error) {
	f := r.f
	lanes := len(rngs)
	if lanes < 1 || lanes > 64 {
		return BitWaveResult{}, fmt.Errorf("sim: %d lanes out of [1,64]", lanes)
	}
	n, N := f.Spans, f.N
	saltWords := (f.H + 63) / 64
	r.clearPlanes()
	// Phase one, lane-major: draw each wave's destinations and salts in
	// the scalar stream order, parking the destinations column-wise in
	// dstAll. Nothing here touches the path-tag table.
	for j, rng := range rngs {
		pattern(r.dsts, rng)
		off := 0
		for src, dst := range r.dsts {
			if dst >= N {
				return BitWaveResult{}, fmt.Errorf("sim: destination %d out of range", dst)
			}
			if dst >= 0 {
				off++
			} else {
				dst = -1
			}
			r.dstAll[src*64+j] = int32(dst)
		}
		r.offered[j] = off
		// The stage salts, drawn in the scalar order: per stage, word
		// ascending. Row j of each 64-word block is this wave's word.
		for w := 0; w < n*saltWords; w++ {
			r.saltBlk[w*64+j] = rng.Uint64()
		}
	}
	// Phase two, source-major: build the live and tag planes one source
	// at a time, so each path-tag row is streamed exactly once per batch
	// (lane-major packing would re-walk a dense N² table per lane — with
	// the table past L2 that is the dominant cost of the batch) and the
	// per-plane bits accumulate in registers instead of heap RMWs. A tag
	// fabric's rows are all its one N-entry tag table (stride 0). Lanes
	// beyond the batch are masked out of live; their stale tag and salt
	// bits are harmless, as every kernel read is masked by live.
	laneMask := ^uint64(0)
	if lanes < 64 {
		laneMask = 1<<uint(lanes) - 1
	}
	// Four sources share one 64x64 transpose: lane j's four 16-bit tags
	// pack into one word, and after the pivot word 16q+b is exactly
	// plane b's lane word for source src+q. This replaces a per-lane
	// per-bit scatter (64*Spans dependent ops per source) with ~1/3 the
	// work in straight-line word ops.
	tags, stride := f.bitTags()
	var blk [64]uint64
	src := 0
	for ; src+3 < N; src += 4 {
		row0 := tags[src*stride : src*stride+N]
		row1 := tags[(src+1)*stride : (src+1)*stride+N]
		row2 := tags[(src+2)*stride : (src+2)*stride+N]
		row3 := tags[(src+3)*stride : (src+3)*stride+N]
		col := r.dstAll[src*64 : (src+4)*64]
		var lv0, lv1, lv2, lv3 uint64
		for j := 0; j < 64; j++ {
			d0, d1, d2, d3 := col[j], col[64+j], col[128+j], col[192+j]
			v0 := uint64(uint32(^d0) >> 31) // 1 when the lane targets d0
			v1 := uint64(uint32(^d1) >> 31)
			v2 := uint64(uint32(^d2) >> 31)
			v3 := uint64(uint32(^d3) >> 31)
			t0 := uint64(row0[d0&^(d0>>31)]) & -v0 // idle reads slot 0, masked off
			t1 := uint64(row1[d1&^(d1>>31)]) & -v1
			t2 := uint64(row2[d2&^(d2>>31)]) & -v2
			t3 := uint64(row3[d3&^(d3>>31)]) & -v3
			lv0 |= v0 << uint(j)
			lv1 |= v1 << uint(j)
			lv2 |= v2 << uint(j)
			lv3 |= v3 << uint(j)
			blk[j] = t0 | t1<<16 | t2<<32 | t3<<48
		}
		bitops.Transpose64(&blk)
		r.live[src] = lv0 & laneMask
		r.live[src+1] = lv1 & laneMask
		r.live[src+2] = lv2 & laneMask
		r.live[src+3] = lv3 & laneMask
		for b := 0; b < n; b++ {
			r.tag[b][src] = blk[b]
			r.tag[b][src+1] = blk[16+b]
			r.tag[b][src+2] = blk[32+b]
			r.tag[b][src+3] = blk[48+b]
		}
	}
	// Tail for N < 4 (two-stage fabrics): direct per-bit scatter.
	for ; src < N; src++ {
		row := tags[src*stride : src*stride+N]
		col := r.dstAll[src*64 : src*64+64]
		var lv uint64
		for b := 0; b < n; b++ {
			blk[b] = 0
		}
		for j := 0; j < 64; j++ {
			d := col[j]
			valid := uint64(uint32(^d) >> 31)
			tag := uint64(row[d&^(d>>31)]) & -valid
			lv |= valid << uint(j)
			for b := 0; b < n; b++ {
				blk[b] |= (tag >> uint(b) & 1) << uint(j)
			}
		}
		r.live[src] = lv & laneMask
		for b := 0; b < n; b++ {
			r.tag[b][src] = blk[b]
		}
	}
	// Pivot each salt block from per-wave rows to per-cell lane words:
	// after the transpose, word c of stage s's row is the lane word
	// whose bit j is wave j's tie-break for cell c.
	for w := 0; w < n*saltWords; w++ {
		bitops.Transpose64((*[64]uint64)(r.saltBlk[w*64 : w*64+64]))
	}
	r.steerPlanes()
	res := BitWaveResult{
		Lanes:        lanes,
		Offered:      r.offered,
		Dropped:      r.dropped,
		Misrouted:    r.misrouted,
		FaultDropped: r.faultDropped,
		DropStage:    r.dropStage,
	}
	for j := 0; j < lanes; j++ {
		res.Delivered[j] = r.offered[j] - r.dropped[j] - r.misrouted[j]
	}
	return res, nil
}

// clearPlanes resets the stage-0-visible state and counters for a new
// batch. The live and tag planes are NOT cleared: both packers assign
// every word of every plane, and every other kernel read is masked by a
// live bit, so stale contents are unreachable.
func (r *BitWaveRunner) clearPlanes() {
	clear(r.der)
	clear(r.dropStage)
	r.offered = [64]int{}
	r.dropped = [64]int{}
	r.misrouted = [64]int{}
	r.faultDropped = [64]int{}
}

// steerPlanes is the kernel: one pass per stage over the H cells,
// advancing all lanes with word-parallel boolean algebra in the scalar
// steer's exact fault precedence. On a tag fabric each cell's flip bit
// turns its tag bits into ports.
//
//minlint:hotpath
func (r *BitWaveRunner) steerPlanes() {
	f := r.f
	n, N, H := f.Spans, f.N, f.H
	saltWords := (H + 63) / 64
	bf := r.faults
	if bf == nil {
		bf = f.zeroFaults
	}
	for s := 0; s < n; s++ {
		last := s == n-1
		deadRow := bf.dead[s*H : (s+1)*H]
		st0Row := bf.stuck0[s*H : (s+1)*H]
		st1Row := bf.stuck1[s*H : (s+1)*H]
		ldRow := bf.linkDown[s*N : (s+1)*N]
		saltRow := r.saltBlk[s*saltWords*64 : (s+1)*saltWords*64]
		tagS := r.tag[s]
		var keyRow []uint16
		if f.flips {
			keyRow = f.key[s*H : (s+1)*H]
		}
		var next []uint64
		if !last {
			next = f.stages[s].next
		}
		for c := 0; c < H; c++ {
			in0, in1 := 2*c, 2*c+1
			la, lb := r.live[in0], r.live[in1]
			if la|lb == 0 {
				if !last {
					r.liveN[next[in0]] = 0
					r.liveN[next[in1]] = 0
				}
				continue
			}
			// Dead switch: every arrival dies here, FaultDropped.
			dead := deadRow[c]
			if m := la & dead; m != 0 {
				r.countFault(s, m)
				la &^= m
			}
			if m := lb & dead; m != 0 {
				r.countFault(s, m)
				lb &^= m
			}
			// Upstream-derailed arrivals: off the unique path, this cell
			// cannot reach their destination — plain drop (the scalar's
			// portUnreachable classification).
			if m := la & r.der[in0]; m != 0 {
				r.countPlain(s, m)
				la &^= m
			}
			if m := lb & r.der[in1]; m != 0 {
				r.countPlain(s, m)
				lb &^= m
			}
			// Port planes: the tag bits, through the cell's flip on a tag
			// fabric. A stuck switch forces them, derailing the lanes
			// whose port disagrees (tracked, dropped later).
			pA, pB := tagS[in0], tagS[in1]
			if keyRow != nil {
				flip := -(uint64(keyRow[c]) >> uint(s) & 1)
				pA, pB = pA^flip, pB^flip
			}
			s0, s1 := st0Row[c], st1Row[c]
			fA := (pA &^ s0) | s1
			fB := (pB &^ s0) | s1
			ndA, ndB := la&(fA^pA), lb&(fB^pB)
			pA, pB = fA, fB
			// Severed chosen outlink: FaultDropped.
			ld0, ld1 := ldRow[in0], ldRow[in1]
			if m := la & ((ld0 &^ pA) | (ld1 & pA)); m != 0 {
				r.countFault(s, m)
				la &^= m
			}
			if m := lb & ((ld0 &^ pB) | (ld1 & pB)); m != 0 {
				r.countFault(s, m)
				lb &^= m
			}
			// Conflict: both inlinks live and wanting the same port. The
			// cell's salt bit picks the winning inlink parity — set means
			// inlink 1 wins (the scalar contract).
			if cf := la & lb &^ (pA ^ pB); cf != 0 {
				sw := saltRow[c]
				dcA, dcB := cf&sw, cf&^sw
				if dcA != 0 {
					r.countPlain(s, dcA)
					la &^= dcA
				}
				if dcB != 0 {
					r.countPlain(s, dcB)
					lb &^= dcB
				}
			}
			// Movement: split each inlink by chosen port, merge per
			// outlink, carry the derail marks of this stage's stuck
			// flips.
			m0A, m1A := la&^pA, la&pA
			m0B, m1B := lb&^pB, lb&pB
			d0 := (ndA & m0A) | (ndB & m0B)
			d1 := (ndA & m1A) | (ndB & m1B)
			if last {
				// Outlinks are terminals. A derailed exit is a wrong
				// terminal (unique-path argument) — Misrouted; everything
				// else exits at its destination.
				r.countMisrouted(d0)
				r.countMisrouted(d1)
				continue
			}
			na, nb := next[in0], next[in1]
			r.liveN[na], r.liveN[nb] = m0A|m0B, m1A|m1B
			r.derN[na], r.derN[nb] = d0, d1
			for b := s + 1; b < n; b++ {
				tb, tnb := r.tag[b], r.tagN[b]
				tnb[na] = (tb[in0] & m0A) | (tb[in1] & m0B)
				tnb[nb] = (tb[in0] & m1A) | (tb[in1] & m1B)
			}
		}
		if !last {
			r.live, r.liveN = r.liveN, r.live
			r.der, r.derN = r.derN, r.der
			r.tag, r.tagN = r.tagN, r.tag
		}
	}
}

// countFault books a fault-kill mask at stage s: pooled DropStage plus
// per-lane Dropped and FaultDropped.
func (r *BitWaveRunner) countFault(s int, m uint64) {
	r.dropStage[s] += bits.OnesCount64(m)
	for ; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		r.dropped[j]++
		r.faultDropped[j]++
	}
}

// countPlain books a plain drop mask at stage s.
func (r *BitWaveRunner) countPlain(s int, m uint64) {
	r.dropStage[s] += bits.OnesCount64(m)
	for ; m != 0; m &= m - 1 {
		r.dropped[bits.TrailingZeros64(m)]++
	}
}

// countMisrouted books a wrong-terminal exit mask.
func (r *BitWaveRunner) countMisrouted(m uint64) {
	for ; m != 0; m &= m - 1 {
		r.misrouted[bits.TrailingZeros64(m)]++
	}
}

// mix64 is a splitmix64 finalizer for the benchmark sweep's synthetic
// salts (the kernel benchmark must not depend on an rng).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BitSteerSweep drives the bit-sliced kernel across the whole fabric
// once: full load on all 64 lanes (lane-invariant destinations derived
// from salt), deterministic synthetic tie-break salts, one steerPlanes
// pass. It exists for the kernel benchmark, mirroring Fabric.SteerSweep
// (the plane algebra is unexported); the accumulated drop/misroute
// count defeats dead-code elimination. Allocation-free.
func (r *BitWaveRunner) BitSteerSweep(salt int) uint64 {
	f := r.f
	n, N := f.Spans, f.N
	r.clearPlanes()
	all := ^uint64(0)
	tags, stride := f.bitTags()
	for src := 0; src < N; src++ {
		dst := (src + salt) & (N - 1)
		tag := uint64(tags[src*stride+dst])
		r.live[src] = all
		for b := 0; b < n; b++ {
			r.tag[b][src] = (tag >> uint(b) & 1) * all
		}
	}
	for i := range r.saltBlk {
		r.saltBlk[i] = mix64(uint64(salt)<<32 + uint64(i))
	}
	r.steerPlanes()
	var acc uint64
	for j := 0; j < 64; j++ {
		acc += uint64(r.dropped[j] + r.misrouted[j])
	}
	return acc
}
