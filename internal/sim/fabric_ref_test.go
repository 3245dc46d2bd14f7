package sim

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

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

// oracleCase is one fabric of the reference comparison.
type oracleCase struct {
	name   string
	perms  []perm.Perm
	banyan bool // expected; guards against a vacuous comparison
}

// oracleCases returns the six catalog networks and tail-cycle (Banyan),
// identity links (unreachable gaps and multi-path ambiguity) and random
// links (mixed reach) at n stages.
func oracleCases(t *testing.T, n int) []oracleCase {
	t.Helper()
	var cs []oracleCase
	for _, name := range topology.Names() {
		cs = append(cs, oracleCase{name, topology.MustBuild(name, n).LinkPerms, true})
	}
	if n >= 3 {
		tc, err := randnet.TailCycleLinkPerms(n)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, oracleCase{"tail-cycle", tc, true})
	}
	N := 1 << uint(n)
	id := make([]perm.Perm, n-1)
	rnd := make([]perm.Perm, n-1)
	rng := rand.New(rand.NewPCG(uint64(n), 11))
	for i := range id {
		id[i] = perm.Identity(N)
		rnd[i] = perm.Random(rng, N)
	}
	cs = append(cs, oracleCase{"identity", id, false})
	// A random network may or may not be Banyan; take the reference's word.
	cs = append(cs, oracleCase{"random", rnd, newRefFabric(rnd).banyan()})
	return cs
}

// TestFabricMatchesDenseReference pins the bit-plane compiler and the
// depth-first path-tag walk to the dense reference they replaced:
// steer for every (stage, cell, dst) intact and under an active fault
// state, Banyan, BitSliceable, and every path tag of a bit-sliceable
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
				for s := 0; s < f.Spans; s++ {
					for cell := 0; cell < f.H; cell++ {
						for dst := 0; dst < f.N; dst++ {
							if got, want := f.steer(faults, s, cell, dst), ref.steer(faults, s, cell, dst); got != want {
								t.Fatalf("%s faulted=%v: steer(s=%d, cell=%d, dst=%d) = %#x, reference %#x",
									label, faults != nil, s, cell, dst, got, want)
							}
						}
					}
				}
			}
			if refTags == nil {
				continue
			}
			f.bitTables()
			for i, want := range refTags {
				if f.pathTag[i] != want {
					t.Fatalf("%s: pathTag(src=%d, dst=%d) = %#x, reference %#x", label, i/f.N, i%f.N, f.pathTag[i], want)
				}
			}
		}
	}
}

// TestBitTablesLazyOnce: compiling a fabric builds no bit tables; the
// first NewBitWaveRunner builds them, and racing first callers (run
// under -race) all share the one build.
func TestBitTablesLazyOnce(t *testing.T) {
	f := fabricFor(t, topology.NameOmega, 8)
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
