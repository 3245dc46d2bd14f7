package sim

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"minequiv/internal/equiv"
	"minequiv/internal/perm"
	"minequiv/internal/randnet"
	"minequiv/internal/topology"
)

// refFabric is the dense reference compiler the bit planes replaced:
// one byte per (stage, cell, dst) holding the port toward dst, or
// portUnreachable, filled by a per-destination backward reachability
// walk, and a per-(src, dst) path-tag walk over those bytes. It is
// deliberately naive; the compiled Fabric must agree with it exactly.
type refFabric struct {
	N, H, Spans int
	port        [][]uint8 // [stage][cell*N+dst]
	next        []perm.Perm
	ambiguous   bool
}

func newRefFabric(perms []perm.Perm) *refFabric {
	n := len(perms) + 1
	N := 1 << uint(n)
	h := N / 2
	r := &refFabric{N: N, H: h, Spans: n, port: make([][]uint8, n), next: perms}
	// reach[cell][dst] at the stage after the one being filled.
	reach := make([][]bool, h)
	for c := range reach {
		reach[c] = make([]bool, N)
		reach[c][2*c], reach[c][2*c+1] = true, true
	}
	r.port[n-1] = make([]uint8, h*N)
	for c := 0; c < h; c++ {
		for dst := 0; dst < N; dst++ {
			r.port[n-1][c*N+dst] = portUnreachable
			if dst>>1 == c {
				r.port[n-1][c*N+dst] = uint8(dst & 1)
			}
		}
	}
	for s := n - 2; s >= 0; s-- {
		r.port[s] = make([]uint8, h*N)
		prev := make([][]bool, h)
		for c := 0; c < h; c++ {
			prev[c] = make([]bool, N)
			c0 := int(perms[s].Apply(uint64(c)<<1) >> 1)
			c1 := int(perms[s].Apply(uint64(c)<<1|1) >> 1)
			for dst := 0; dst < N; dst++ {
				r0, r1 := reach[c0][dst], reach[c1][dst]
				prev[c][dst] = r0 || r1
				pt := uint8(portUnreachable)
				switch {
				case r0 && r1:
					r.ambiguous = true
					pt = 0
				case r0:
					pt = 0
				case r1:
					pt = 1
				}
				r.port[s][c*N+dst] = pt
			}
		}
		reach = prev
	}
	return r
}

// steer is the reference crossbar decision, in the fault precedence
// Fabric.steer documents.
func (r *refFabric) steer(fs *FaultState, s, cell, dst int) uint8 {
	pt := r.port[s][cell*r.N+dst]
	if fs == nil || !fs.active {
		return pt
	}
	switch fs.mode[s*r.H+cell] {
	case switchDead:
		return portFaulted
	case switchStuck0:
		if pt != portUnreachable {
			pt = 0
		}
	case switchStuck1:
		if pt != portUnreachable {
			pt = 1
		}
	}
	if pt == portUnreachable {
		return pt
	}
	if fs.linkDown[s*r.N+cell<<1|int(pt)] {
		return portFaulted
	}
	return pt
}

func (r *refFabric) banyan() bool {
	if r.ambiguous {
		return false
	}
	for _, p := range r.port[0] {
		if p == portUnreachable {
			return false
		}
	}
	return true
}

// pathTags walks the byte tables once per (src, dst) pair; nil when the
// fabric does not qualify for the bit kernel.
func (r *refFabric) pathTags() []uint16 {
	if r.Spans > 16 || !r.banyan() {
		return nil
	}
	tags := make([]uint16, r.N*r.N)
	for src := 0; src < r.N; src++ {
		for dst := 0; dst < r.N; dst++ {
			link := uint64(src)
			var tag uint16
			for s := 0; s < r.Spans; s++ {
				cell := link >> 1
				pt := r.port[s][int(cell)*r.N+dst]
				if pt == portUnreachable {
					return nil
				}
				tag |= uint16(pt) << uint(s)
				link = cell<<1 | uint64(pt)
				if s < r.Spans-1 {
					link = r.next[s].Apply(link)
				}
			}
			tags[src*r.N+dst] = tag
		}
	}
	return tags
}

// kernelTag is the port schedule the bit kernel steers for an intact
// (src, dst) flight: the dense pathTag entry, or on a tag fabric the
// destination tag with the flip bit of every cell on the path applied
// at its stage. The bit tables must be built.
func (f *Fabric) kernelTag(src, dst int) uint16 {
	if f.key == nil {
		return f.pathTag[src*f.N+dst]
	}
	tag := f.tag[dst]
	link := uint64(src)
	for s := 0; s < f.Spans; s++ {
		cell := int(link >> 1)
		tag ^= f.key[s*f.H+cell] & (1 << uint(s))
		link = uint64(cell)<<1 | uint64(tag>>uint(s)&1)
		if s < f.Spans-1 {
			link = f.forward(s, link)
		}
	}
	return tag
}

// scrambleLinkPerms returns a network isomorphic to perms: every stage's
// cells relabelled by a random permutation, and the two output ports of
// a random half of the cells of every stage but the last swapped. The
// swaps are what a tag fabric's per-cell flip bits absorb.
func scrambleLinkPerms(rng *rand.Rand, perms []perm.Perm) []perm.Perm {
	n := len(perms) + 1
	N := 1 << uint(n)
	relabel := make([]perm.Perm, n)
	for s := range relabel {
		relabel[s] = perm.Random(rng, N/2)
	}
	out := make([]perm.Perm, n-1)
	for s, p := range perms {
		q := make(perm.Perm, N)
		for c := 0; c < N/2; c++ {
			swap := rng.Uint64() & 1
			for b := uint64(0); b < 2; b++ {
				y := p[uint64(c)<<1|b]
				q[relabel[s][c]<<1|b^swap] = relabel[s+1][y>>1]<<1 | y&1
			}
		}
		out[s] = q
	}
	return out
}

// oracleCase is one fabric of the reference comparison.
type oracleCase struct {
	name   string
	perms  []perm.Perm
	banyan bool // expected; guards against a vacuous comparison
	tagged bool // expected to compile as a tag fabric
}

// oracleCases returns at n stages the six catalog networks, a random
// scramble (cell relabel plus port swaps) of each, and a random Banyan
// PIPID network — all baseline-equivalent, so tag fabrics — and the
// dense cases: tail-cycle (Banyan), identity links (unreachable gaps
// and multi-path ambiguity) and random links (mixed reach).
func oracleCases(t testing.TB, n int) []oracleCase {
	t.Helper()
	var cs []oracleCase
	rng := rand.New(rand.NewPCG(uint64(n), 11))
	for _, name := range topology.Names() {
		lp := topology.MustBuild(name, n).LinkPerms
		cs = append(cs, oracleCase{name, lp, true, true},
			oracleCase{"scrambled-" + name, scrambleLinkPerms(rng, lp), true, true})
	}
	pipidNet, err := randnet.PIPIDNetwork(rng, n, 1000)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, oracleCase{"pipid", pipidNet.LinkPerms, true, true})
	if n >= 3 {
		tc, err := randnet.TailCycleLinkPerms(n)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, oracleCase{"tail-cycle", tc, true, false})
	}
	N := 1 << uint(n)
	id := make([]perm.Perm, n-1)
	rnd := make([]perm.Perm, n-1)
	for i := range id {
		id[i] = perm.Identity(N)
		rnd[i] = perm.Random(rng, N)
	}
	cs = append(cs, oracleCase{"identity", id, false, false})
	// A random network may or may not be Banyan; take the reference's
	// word, and expect a tag fabric exactly when it is also
	// baseline-equivalent (possible only at the smallest sizes).
	rndBanyan := newRefFabric(rnd).banyan()
	rndEquiv := false
	if rndBanyan {
		nw, err := topology.FromLinkPerms("random", n, rnd)
		if err != nil {
			t.Fatal(err)
		}
		rndEquiv = equiv.IsBaselineEquivalent(nw.Graph)
	}
	cs = append(cs, oracleCase{"random", rnd, rndBanyan, rndEquiv})
	return cs
}

// TestFabricMatchesDenseReference pins both compiled representations
// and the bit kernel's path tags to the dense reference: steer for
// every (stage, cell, dst) intact and under an active fault state,
// Banyan, BitSliceable, the representation each case compiles to, and
// the port schedule of every (src, dst) flight of a bit-sliceable
// fabric.
func TestFabricMatchesDenseReference(t *testing.T) {
	plan := FaultPlan{SwitchDeadRate: 0.1, SwitchStuckRate: 0.2, LinkDownRate: 0.1}
	for n := 2; n <= 9; n++ {
		for _, tc := range oracleCases(t, n) {
			label := fmt.Sprintf("%s/n=%d", tc.name, n)
			ref := newRefFabric(tc.perms)
			f, err := NewFabric(tc.perms)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got, want := f.Banyan(), ref.banyan(); got != want || got != tc.banyan {
				t.Fatalf("%s: Banyan() = %v, reference %v, expected %v", label, got, want, tc.banyan)
			}
			if got := f.key != nil; got != tc.tagged {
				t.Fatalf("%s: tag fabric = %v, expected %v", label, got, tc.tagged)
			}
			refTags := ref.pathTags()
			if got, want := f.BitSliceable(), refTags != nil; got != want {
				t.Fatalf("%s: BitSliceable() = %v, reference %v", label, got, want)
			}
			fs := f.NewFaultState()
			fs.Resample(plan, rand.New(rand.NewPCG(uint64(n), 5)))
			if !fs.Active() {
				t.Fatalf("%s: sampled fault state is intact", label)
			}
			for _, faults := range []*FaultState{nil, fs} {
				if s, cell, dst, ok := steersMatch(f, ref, faults); !ok {
					t.Fatalf("%s faulted=%v: steer(s=%d, cell=%d, dst=%d) = %#x, reference %#x", label, faults != nil,
						s, cell, dst, f.steer(faults, s, cell, dst), ref.steer(faults, s, cell, dst))
				}
			}
			if refTags == nil {
				continue
			}
			f.bitTables()
			for i, want := range refTags {
				if got := f.kernelTag(i/f.N, i%f.N); got != want {
					t.Fatalf("%s: path tag (src=%d, dst=%d) = %#x, reference %#x", label, i/f.N, i%f.N, got, want)
				}
			}
		}
	}
}

// steersMatch compares steer with the reference at every (stage, cell,
// dst) under one fault state, returning the first disagreement.
func steersMatch(f *Fabric, ref *refFabric, faults *FaultState) (s, cell, dst int, ok bool) {
	for s = 0; s < f.Spans; s++ {
		for cell = 0; cell < f.H; cell++ {
			for dst = 0; dst < f.N; dst++ {
				if f.steer(faults, s, cell, dst) != ref.steer(faults, s, cell, dst) {
					return s, cell, dst, false
				}
			}
		}
	}
	return 0, 0, 0, true
}

// FuzzTagCompile drives the tag compile with seeded scrambles of the
// catalog networks, which it must always accept, and with random link
// permutations. Whenever it accepts, every steer, intact and under a
// sampled fault state, must match the dense reference.
func FuzzTagCompile(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0))
	f.Add(uint64(2), uint8(6), uint8(3))
	f.Add(uint64(3), uint8(2), uint8(6))
	f.Add(uint64(4), uint8(3), uint8(7))
	names := topology.Names()
	f.Fuzz(func(t *testing.T, seed uint64, nb, kind uint8) {
		n := 2 + int(nb)%6
		N := 1 << uint(n)
		rng := rand.New(rand.NewPCG(seed, uint64(kind)))
		var perms []perm.Perm
		scrambled := int(kind)%(len(names)+1) < len(names)
		if scrambled {
			perms = scrambleLinkPerms(rng, topology.MustBuild(names[int(kind)%(len(names)+1)], n).LinkPerms)
		} else {
			perms = make([]perm.Perm, n-1)
			for i := range perms {
				perms[i] = perm.Random(rng, N)
			}
		}
		fab, err := NewFabric(perms)
		if err != nil {
			t.Fatal(err)
		}
		if fab.key == nil {
			if scrambled {
				t.Fatalf("scrambled catalog network (seed %d, n=%d, kind %d) rejected by the tag compile", seed, n, kind)
			}
			return
		}
		ref := newRefFabric(perms)
		fs := fab.NewFaultState()
		fs.Resample(FaultPlan{SwitchDeadRate: 0.1, SwitchStuckRate: 0.2, LinkDownRate: 0.1}, rng)
		for _, faults := range []*FaultState{nil, fs} {
			if s, cell, dst, ok := steersMatch(fab, ref, faults); !ok {
				t.Fatalf("faulted=%v: steer(s=%d, cell=%d, dst=%d) = %#x, reference %#x", faults != nil,
					s, cell, dst, fab.steer(faults, s, cell, dst), ref.steer(faults, s, cell, dst))
			}
		}
	})
}

// TestBitTablesLazyOnce: compiling a dense fabric builds no bit tables;
// the first NewBitWaveRunner builds them, and racing first callers (run
// under -race) all share the one build. Tail-cycle is the dense Banyan
// case, the only kind of fabric with an N² path-tag table.
func TestBitTablesLazyOnce(t *testing.T) {
	perms, err := randnet.TailCycleLinkPerms(8)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFabric(perms)
	if err != nil {
		t.Fatal(err)
	}
	if f.key != nil || !f.BitSliceable() {
		t.Fatal("tail-cycle did not compile as a dense bit-sliceable fabric")
	}
	if f.BitTablesBuilt() || f.pathTag != nil || f.zeroFaults != nil {
		t.Fatal("NewFabric built the bit tables")
	}
	const callers = 8
	tags := make([]*uint16, callers)
	var wg sync.WaitGroup
	for i := range tags {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := f.NewBitWaveRunner()
			if err != nil {
				t.Error(err)
				return
			}
			if !f.BitTablesBuilt() {
				t.Error("runner returned before the bit tables were built")
			}
			tags[i] = &r.f.pathTag[0]
		}()
	}
	wg.Wait()
	for i, p := range tags {
		if p == nil || p != tags[0] {
			t.Fatalf("caller %d saw path tags %p, caller 0 saw %p", i, p, tags[0])
		}
	}
	if len(f.pathTag) != f.N*f.N || f.zeroFaults == nil {
		t.Fatalf("bit tables incomplete: %d tags, zeroFaults %v", len(f.pathTag), f.zeroFaults)
	}
}

// TestTagFabricHoldsNoDenseTables: a catalog network compiles to a tag
// fabric that holds neither reach/port planes nor, once its bit tables
// are built, an N² path-tag table; and compiling omega at n=14 allocates
// under 1 MiB (its dense planes alone would take 224 MiB).
func TestTagFabricHoldsNoDenseTables(t *testing.T) {
	for _, name := range topology.Names() {
		f := fabricFor(t, name, 8)
		if f.key == nil {
			t.Fatalf("%s: not a tag fabric", name)
		}
		for s, st := range f.stages {
			if st.plane != nil {
				t.Fatalf("%s: stage %d holds dense planes", name, s)
			}
		}
		if _, err := f.NewBitWaveRunner(); err != nil {
			t.Fatal(err)
		}
		if !f.BitTablesBuilt() || f.pathTag != nil {
			t.Fatalf("%s: bit tables built %v, path-tag table of %d entries", name, f.BitTablesBuilt(), len(f.pathTag))
		}
	}
	perms := topology.MustBuild(topology.NameOmega, 14).LinkPerms
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := NewFabric(perms)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if f.key == nil {
		t.Fatal("omega n=14: not a tag fabric")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("compiling omega n=14 allocated %d bytes, want < 1 MiB", alloc)
	}
}
