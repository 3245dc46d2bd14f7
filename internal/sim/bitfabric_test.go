package sim

import (
	"math/rand/v2"
	"strings"
	"sync"
	"testing"

	"minequiv/internal/bitops"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

func bitRunnerFor(t testing.TB, f *Fabric) *BitWaveRunner {
	t.Helper()
	r, err := f.NewBitWaveRunner()
	if err != nil {
		t.Fatalf("NewBitWaveRunner: %v", err)
	}
	return r
}

// identityFabric builds a non-Banyan fabric (identity inter-stage links
// leave every stage-0 cell reaching only 2 of N terminals).
func identityFabric(t *testing.T, n int) *Fabric {
	t.Helper()
	N := 1 << uint(n)
	perms := make([]perm.Perm, n-1)
	for i := range perms {
		perms[i] = perm.Identity(N)
	}
	f, err := NewFabric(perms)
	if err != nil {
		t.Fatalf("NewFabric: %v", err)
	}
	return f
}

func TestBitSliceable(t *testing.T) {
	for _, name := range topology.Names() {
		f := fabricFor(t, name, 4)
		if !f.BitSliceable() {
			t.Errorf("%s: registry Banyan fabric not bit-sliceable", name)
		}
	}
	bad := identityFabric(t, 4)
	if bad.BitSliceable() {
		t.Fatalf("identity-linked fabric reported bit-sliceable")
	}
	if _, err := bad.NewBitWaveRunner(); err == nil {
		t.Fatalf("NewBitWaveRunner on non-sliceable fabric: no error")
	}
}

// bitLaneFaults folds per-lane resamples of plan into a BitFaultState,
// lane j drawn from stream (fseed, j) — the same stream the scalar
// reference below uses, so lane j sees the identical realization.
func bitLaneFaults(t *testing.T, f *Fabric, plan FaultPlan, fseed uint64, lanes int) *BitFaultState {
	t.Helper()
	bf := f.NewBitFaultState()
	fs := f.NewFaultState()
	for j := 0; j < lanes; j++ {
		fs.Resample(plan, rand.New(rand.NewPCG(fseed, uint64(j))))
		if err := bf.SetLane(j, fs); err != nil {
			t.Fatalf("SetLane(%d): %v", j, err)
		}
	}
	return bf
}

// TestBitWaveMatchesScalar is the kernel-equivalence property at the
// sim layer: for every registry topology, a scramble of each (tag
// fabrics whose cells carry port flips), tail-cycle (the dense bit
// kernel path), several sizes, traffic
// patterns, fault plans and batch widths, lane j of the bit-sliced
// kernel must reproduce the scalar wave of the identical rng stream
// counter for counter, and the pooled DropStage must match the scalar
// sum. This is byte-identity by construction, so comparisons are exact.
func TestBitWaveMatchesScalar(t *testing.T) {
	plans := []struct {
		name string
		plan FaultPlan
		use  bool
	}{
		{"intact", FaultPlan{}, false},
		{"pinned", FaultPlan{Faults: []Fault{
			{Kind: SwitchDead, Stage: 0, Cell: 1},
			{Kind: SwitchStuck1, Stage: 1, Cell: 0},
			{Kind: LinkDown, Stage: 2, Link: 3},
		}}, true},
		{"random", FaultPlan{SwitchDeadRate: 0.05, SwitchStuckRate: 0.10, LinkDownRate: 0.05}, true},
	}
	traffics := []struct {
		name string
		tr   Traffic
	}{
		{"uniform", Uniform()},
		{"bernoulli-0.6", Bernoulli(0.6)},
		{"bit-reversal", BitReversal()},
	}
	type bitCase struct {
		name  string
		perms []perm.Perm
	}
	var cases []bitCase
	for _, n := range []int{3, 5} {
		rng := rand.New(rand.NewPCG(uint64(n), 17))
		for _, name := range topology.Names() {
			lp := topology.MustBuild(name, n).LinkPerms
			cases = append(cases, bitCase{name, lp}, bitCase{"scrambled-" + name, scrambleLinkPerms(rng, lp)})
		}
		tc, err := randnet.TailCycleLinkPerms(n)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, bitCase{"tail-cycle", tc})
	}
	for _, bc := range cases {
		name := bc.name
		f, err := NewFabric(bc.perms)
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(name, "scrambled-") && !f.flips {
			t.Fatalf("%s: no cell flipped, the flip path goes untested", name)
		}
		n := f.Spans
		wr := f.NewWaveRunner()
		br := bitRunnerFor(t, f)
		for _, pl := range plans {
			for _, tr := range traffics {
				for _, lanes := range []int{1, 5, 64} {
					const seed, fseed = 0xABCD, 0xF00D
					// Scalar reference, one lane at a time.
					var (
						scal      [64]WaveResult
						dropStage = make([]int, f.Spans)
					)
					fs := f.NewFaultState()
					for j := 0; j < lanes; j++ {
						if pl.use {
							fs.Resample(pl.plan, rand.New(rand.NewPCG(fseed, uint64(j))))
							if err := wr.SetFaults(fs); err != nil {
								t.Fatal(err)
							}
						} else if err := wr.SetFaults(nil); err != nil {
							t.Fatal(err)
						}
						res, err := wr.RunTraffic(tr.tr, rand.New(rand.NewPCG(seed, uint64(j))))
						if err != nil {
							t.Fatalf("%s/n=%d/%s/%s scalar lane %d: %v", name, n, pl.name, tr.name, j, err)
						}
						for s, d := range res.DropStage {
							dropStage[s] += d
						}
						res.DropStage = nil
						scal[j] = res
					}
					// Bit-sliced batch on the identical streams.
					if pl.use {
						if err := br.SetFaults(bitLaneFaults(t, f, pl.plan, fseed, lanes)); err != nil {
							t.Fatal(err)
						}
					} else if err := br.SetFaults(nil); err != nil {
						t.Fatal(err)
					}
					rngs := make([]*rand.Rand, lanes)
					for j := range rngs {
						rngs[j] = rand.New(rand.NewPCG(seed, uint64(j)))
					}
					got, err := br.RunTraffic(tr.tr, rngs)
					if err != nil {
						t.Fatalf("%s/n=%d/%s/%s bit: %v", name, n, pl.name, tr.name, err)
					}
					if got.Lanes != lanes {
						t.Fatalf("Lanes = %d, want %d", got.Lanes, lanes)
					}
					for j := 0; j < lanes; j++ {
						want := scal[j]
						if got.Offered[j] != want.Offered || got.Delivered[j] != want.Delivered ||
							got.Dropped[j] != want.Dropped || got.Misrouted[j] != want.Misrouted ||
							got.FaultDropped[j] != want.FaultDropped {
							t.Errorf("%s/n=%d/%s/%s lane %d/%d:\n bit    {off %d del %d drop %d mis %d fdrop %d}\n scalar %+v",
								name, n, pl.name, tr.name, j, lanes,
								got.Offered[j], got.Delivered[j], got.Dropped[j], got.Misrouted[j], got.FaultDropped[j], want)
						}
					}
					for j := lanes; j < 64; j++ {
						if got.Offered[j]|got.Delivered[j]|got.Dropped[j]|got.Misrouted[j]|got.FaultDropped[j] != 0 {
							t.Errorf("%s/n=%d/%s/%s: unused lane %d has non-zero counters", name, n, pl.name, tr.name, j)
						}
					}
					for s := range dropStage {
						if got.DropStage[s] != dropStage[s] {
							t.Errorf("%s/n=%d/%s/%s DropStage[%d] = %d, want %d",
								name, n, pl.name, tr.name, s, got.DropStage[s], dropStage[s])
						}
					}
				}
			}
		}
	}
}

// TestBitWaveMisroutedPath pins the last-stage derail classification: a
// switch stuck at the final stage exits packets on a wrong terminal,
// which both kernels must count as Misrouted, not Dropped.
func TestBitWaveMisroutedPath(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	plan := FaultPlan{Faults: []Fault{{Kind: SwitchStuck1, Stage: f.Spans - 1, Cell: 0}}}
	fs := f.NewFaultState()
	fs.Resample(plan, nil)

	const lanes = 50
	wr := f.NewWaveRunner()
	if err := wr.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	var want [lanes]WaveResult
	totalMis := 0
	for j := 0; j < lanes; j++ {
		res, err := wr.RunTraffic(Uniform(), rand.New(rand.NewPCG(9, uint64(j))))
		if err != nil {
			t.Fatal(err)
		}
		want[j] = res
		totalMis += res.Misrouted
	}
	if totalMis == 0 {
		t.Fatalf("scalar runs produced no misroutes; stuck-last-stage scenario is not exercising the path")
	}

	br := bitRunnerFor(t, f)
	bf := f.NewBitFaultState()
	if err := bf.SetAll(fs); err != nil {
		t.Fatal(err)
	}
	if err := br.SetFaults(bf); err != nil {
		t.Fatal(err)
	}
	rngs := make([]*rand.Rand, lanes)
	for j := range rngs {
		rngs[j] = rand.New(rand.NewPCG(9, uint64(j)))
	}
	got, err := br.RunTraffic(Uniform(), rngs)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < lanes; j++ {
		if got.Misrouted[j] != want[j].Misrouted || got.Dropped[j] != want[j].Dropped || got.Delivered[j] != want[j].Delivered {
			t.Fatalf("bit lane %d = {mis %d drop %d del %d}, scalar = {mis %d drop %d del %d}", j,
				got.Misrouted[j], got.Dropped[j], got.Delivered[j], want[j].Misrouted, want[j].Dropped, want[j].Delivered)
		}
	}
}

func TestBitFaultStateFolding(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 4)
	plan := FaultPlan{SwitchDeadRate: 0.2, SwitchStuckRate: 0.3, LinkDownRate: 0.2}
	fs := f.NewFaultState()
	fs.Resample(plan, rand.New(rand.NewPCG(1, 1)))

	bf := f.NewBitFaultState()
	const lane = 3
	if err := bf.SetLane(lane, fs); err != nil {
		t.Fatal(err)
	}
	laneBit := uint64(1) << lane
	for i, m := range fs.mode {
		got := bf.dead[i]&laneBit != 0
		if got != (m == switchDead) {
			t.Fatalf("dead[%d] lane bit = %t, mode = %d", i, got, m)
		}
		if s0 := bf.stuck0[i]&laneBit != 0; s0 != (m == switchStuck0) {
			t.Fatalf("stuck0[%d] lane bit = %t, mode = %d", i, s0, m)
		}
		if s1 := bf.stuck1[i]&laneBit != 0; s1 != (m == switchStuck1) {
			t.Fatalf("stuck1[%d] lane bit = %t, mode = %d", i, s1, m)
		}
		if other := (bf.dead[i] | bf.stuck0[i] | bf.stuck1[i]) &^ laneBit; other != 0 {
			t.Fatalf("switch masks[%d] leak into other lanes: %#x", i, other)
		}
	}
	for i, down := range fs.linkDown {
		if got := bf.linkDown[i]&laneBit != 0; got != down {
			t.Fatalf("linkDown[%d] lane bit = %t, want %t", i, got, down)
		}
		if other := bf.linkDown[i] &^ laneBit; other != 0 {
			t.Fatalf("linkDown[%d] leaks into other lanes: %#x", i, other)
		}
	}

	// Refolding a lane replaces it; nil clears it.
	if err := bf.SetLane(lane, nil); err != nil {
		t.Fatal(err)
	}
	for i := range bf.dead {
		if bf.dead[i]|bf.stuck0[i]|bf.stuck1[i] != 0 {
			t.Fatalf("switch masks[%d] survive a nil refold", i)
		}
	}
	for i := range bf.linkDown {
		if bf.linkDown[i] != 0 {
			t.Fatalf("linkDown[%d] survives a nil refold", i)
		}
	}

	// SetAll broadcasts one realization to every lane.
	if err := bf.SetAll(fs); err != nil {
		t.Fatal(err)
	}
	for i, m := range fs.mode {
		want := uint64(0)
		if m == switchDead {
			want = ^uint64(0)
		}
		if bf.dead[i] != want {
			t.Fatalf("SetAll dead[%d] = %#x, want %#x", i, bf.dead[i], want)
		}
	}
	bf.Reset()
	for i := range bf.linkDown {
		if bf.linkDown[i] != 0 {
			t.Fatalf("linkDown[%d] survives Reset", i)
		}
	}
}

func TestBitWaveErrors(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 3)
	r := bitRunnerFor(t, f)
	if _, err := r.RunTraffic(Uniform(), nil); err == nil {
		t.Errorf("0 lanes: no error")
	}
	rngs := make([]*rand.Rand, 65)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewPCG(0, uint64(i)))
	}
	if _, err := r.RunTraffic(Uniform(), rngs); err == nil {
		t.Errorf("65 lanes: no error")
	}
	bad := func(dsts []int, _ *rand.Rand) {
		for i := range dsts {
			dsts[i] = len(dsts)
		}
	}
	if _, err := r.RunTraffic(bad, rngs[:1]); err == nil {
		t.Errorf("out-of-range destination: no error")
	}
	other := fabricFor(t, topology.NameOmega, 4)
	if err := r.SetFaults(other.NewBitFaultState()); err == nil {
		t.Errorf("foreign bit fault state: no error")
	}
	bf := f.NewBitFaultState()
	if err := bf.SetLane(64, nil); err == nil {
		t.Errorf("lane 64: no error")
	}
	if err := bf.SetLane(-1, nil); err == nil {
		t.Errorf("lane -1: no error")
	}
	if err := bf.SetLane(0, other.NewFaultState()); err == nil {
		t.Errorf("foreign fault state lane fold: no error")
	}
	if err := bf.SetAll(other.NewFaultState()); err == nil {
		t.Errorf("foreign fault state broadcast: no error")
	}
}

func TestBitSteerSweepDeterministic(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 5)
	a := bitRunnerFor(t, f)
	b := bitRunnerFor(t, f)
	if x, y := a.BitSteerSweep(7), b.BitSteerSweep(7); x != y {
		t.Fatalf("sweep not deterministic: %d vs %d", x, y)
	}
	fs := f.NewFaultState()
	fs.Resample(FaultPlan{SwitchDeadRate: 0.1}, rand.New(rand.NewPCG(2, 2)))
	bf := f.NewBitFaultState()
	if err := bf.SetAll(fs); err != nil {
		t.Fatal(err)
	}
	if err := b.SetFaults(bf); err != nil {
		t.Fatal(err)
	}
	if x, y := a.BitSteerSweep(7), b.BitSteerSweep(7); x == y {
		t.Fatalf("faulted sweep identical to intact sweep: %d", x)
	}
}

// fuzzFabrics are bit-sliceable fabrics of both representations, omega
// (a tag fabric) and tail-cycle (dense), with their bit tables built up
// front: the fuzz target reads their path tags directly, without a
// runner.
var fuzzFabrics = sync.OnceValue(func() []*Fabric {
	tc, err := randnet.TailCycleLinkPerms(4)
	if err != nil {
		panic(err)
	}
	var fs []*Fabric
	for _, perms := range [][]perm.Perm{topology.MustBuild(topology.NameOmega, 4).LinkPerms, tc} {
		f, err := NewFabric(perms)
		if err != nil {
			panic(err)
		}
		f.bitTables()
		fs = append(fs, f)
	}
	return fs
})

// FuzzBitPlaneRoundTrip checks the two pack/unpack pivots the bit
// kernel rests on: a compiled path tag, unpacked bit by bit and walked
// through the inter-stage wiring, must land on the destination it was
// packed from; and the salt-block transpose must be a true involution
// (unpack(pack(x)) == x) for arbitrary word contents.
func FuzzBitPlaneRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 15, 8, 0x80, 7}, uint64(42))
	f.Add([]byte{}, uint64(0))
	f.Add([]byte{0xFF, 0x7F, 0x40}, uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		for _, fab := range fuzzFabrics() {
			N, n := fab.N, fab.Spans
			for src := 0; src < N && src < len(data); src++ {
				if data[src]&0x80 != 0 {
					continue // idle terminal
				}
				dst := int(data[src]) % N
				tag := fab.kernelTag(src, dst)
				link := uint64(src)
				for s := 0; s < n; s++ {
					cell := link >> 1
					pt := uint64(tag) >> uint(s) & 1
					link = cell<<1 | pt
					if s < n-1 {
						link = fab.forward(s, link)
					}
				}
				if int(link) != dst {
					t.Fatalf("tag %#x of (src %d, dst %d) walks to terminal %d", tag, src, dst, link)
				}
			}
		}
		var blk, orig [64]uint64
		x := seed
		for i := range blk {
			x = mix64(x)
			blk[i] = x
		}
		orig = blk
		bitops.Transpose64(&blk)
		for i, w := range blk {
			for j := 0; j < 64; j++ {
				if w>>uint(j)&1 != orig[j]>>uint(i)&1 {
					t.Fatalf("transpose: word %d bit %d != orig word %d bit %d", i, j, j, i)
				}
			}
		}
		bitops.Transpose64(&blk)
		if blk != orig {
			t.Fatalf("transpose is not an involution for seed %#x", seed)
		}
	})
}
