package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"minequiv/internal/perm"
)

// This file is the fabric kernel: the one compiled, immutable model of a
// MIN's switching hardware that every simulation model drives. A stage
// is a bank of 2x2 crossbar switches plus the link permutation carrying
// its outlinks to the next stage's inlinks; the kernel exposes exactly
// two operations — steer (the crossbar decision at one switch, fault
// state included) and forward (the inter-stage wire) — and both the
// unbuffered WaveRunner and the queued BufferedRunner are written
// against them. There is deliberately no second copy of the per-stage
// crossbar logic anywhere: a fault mode added to steer is instantly
// honored by every model.
//
// A fabric compiles to one of two representations. Networks whose
// reach sets nest as destination-tag prefix classes — every
// baseline-equivalent network, the paper's six among them — become tag
// fabrics: one N-entry destination tag table plus one uint16 key per
// (stage, cell), O(N·n) to build and to hold. Every other network
// (tail-cycle, identity or random links, other custom wirings) keeps
// dense reach/port planes of h·N²/8 bytes. steer reads whichever the
// fabric holds, with the same fault precedence either way.

// Port sentinels returned by steer. Values 0 and 1 are real output
// ports; the sentinels classify why a packet cannot be switched.
const (
	// portUnreachable: the intact fabric has no path from this cell to
	// the destination (non-Banyan gap, or a packet knocked off its
	// unique path by an earlier stuck switch).
	portUnreachable = 0xFF
	// portFaulted: a fault kills the packet here — its switch is dead,
	// or the outlink it must take is severed.
	portFaulted = 0xFE
)

// stageKernel is one compiled stage: the switch bank's dense routing
// planes (dense fabrics only) and the outgoing link permutation.
type stageKernel struct {
	// plane interleaves two destination bitsets per cell, one uint64
	// word of each at a time: for cell c and destination word w,
	// plane[(c*words+w)*2] is word w of the set of output terminals the
	// cell reaches, and plane[(c*words+w)*2+1] is word w of the subset
	// it reaches through port 1 only. A destination outside the reach
	// set is portUnreachable; one inside it leaves on port 1 when its
	// port-1 bit is set and on port 0 otherwise, so multi-path ambiguity
	// collapses toward port 0. Both words of a (cell, dst) lookup sit
	// side by side: one steer costs two adjacent loads and a bit test.
	// Nil on tag fabrics.
	plane []uint64
	// next carries outlink x of this stage to inlink next[x] of the
	// following stage; nil for the last stage, whose outlinks are the
	// output terminals themselves.
	next perm.Perm
}

// Fabric is a compiled simulation model of one MIN: per-stage 2x2
// switch banks plus the inter-stage link permutations. It routes ANY
// permutation-defined network, PIPID or not. A tag fabric steers by
// destination tag and per-cell prefix key (see NewFabric); any other
// fabric steers by dense reach/port bit planes. Only dense Banyan
// fabrics need the bit-sliced kernel's N² path-tag table, and it is
// not part of compilation: it is built once, on the first
// NewBitWaveRunner, so runs that never fill a 64-wave batch never pay
// for it. A Fabric is safe for concurrent use; mutable per-trial state
// (runner scratch, fault state) lives outside it.
type Fabric struct {
	N      int // terminals
	H      int // cells per stage
	Spans  int // stages
	words  int // uint64 words per destination bitset, ceil(N/64)
	stages []stageKernel
	// tag[dst] is the port schedule of stage-0 cell 0's path to dst: bit
	// s is the port it takes at stage s. key[s*H+c] holds, in bits
	// 0..s-1, the tag prefix every destination (stage s, cell c) reaches
	// shares, and in bit s the cell's port flip. Both nil on dense
	// fabrics.
	tag []uint16
	key []uint16
	// flips records whether any cell of a tag fabric has its port flip
	// set. None does in the catalog networks, whose bit kernel then
	// skips the per-cell flip.
	flips bool
	// banyan records full unique-path reachability: true of every tag
	// fabric, derived word-wise from the stage-0 reach planes of a dense
	// one (see Banyan).
	banyan bool

	// The bit kernel's tables, built under bitOnce by bitTables and
	// immutable afterwards; nil until then, and forever on fabrics that
	// are not BitSliceable. bitBuilt flips once they are in place.
	bitOnce  sync.Once
	bitBuilt atomic.Bool
	// pathTag[src*N+dst] packs the port schedule the planes steer for an
	// intact (src, dst) flight on a dense fabric: bit s is the output
	// port taken at stage s. Tag fabrics never build it; their kernel
	// reads the source-independent tag table instead.
	pathTag []uint16
	// zeroFaults is the shared all-clear fault mask set the bit kernel
	// uses for intact runs.
	zeroFaults *BitFaultState
}

// NewFabric compiles a fabric, first as a tag fabric (compileTags) and,
// when the wiring is not one, as dense reach/port planes
// (compilePlanes).
func NewFabric(perms []perm.Perm) (*Fabric, error) {
	n := len(perms) + 1
	N := 1 << uint(n)
	for s, p := range perms {
		if p.N() != N {
			return nil, fmt.Errorf("sim: stage %d permutation on %d symbols, want %d", s, p.N(), N)
		}
	}
	f := &Fabric{N: N, H: N / 2, Spans: n, words: (N + 63) / 64, stages: make([]stageKernel, n)}
	for s := 0; s < n-1; s++ {
		f.stages[s].next = perms[s]
	}
	if !f.compileTags() {
		f.compilePlanes()
	}
	return f, nil
}

// compileTags tries the O(N·n) tag compile and reports whether it took.
// It walks stage-0 cell 0's tree once for the destination tags, whose N
// leaves must be distinct, then goes backward over the stages: a cell's
// key is its port-0 child's prefix (bits 0..s) and is accepted only when
// its port-1 child's prefix agrees below bit s and differs at bit s.
// Then the destinations (s, c) reaches are exactly the tags with key's
// s-bit prefix, by induction from the terminals: the two children's
// classes are disjoint, each as large as its reach set (the tags are a
// permutation of 0..N-1, so an s-bit prefix class holds 2^(n-s) of
// them), so their union is the parent's class. A destination leaves on
// port 1 exactly when its tag bit s differs from the key's. A tag fabric
// is therefore Banyan by construction. On rejection f is untouched.
func (f *Fabric) compileTags() bool {
	n, N, H := f.Spans, f.N, f.H
	if n > 16 {
		return false
	}
	tag := make([]uint16, N)
	seen := make([]uint64, f.words)
	if !f.walkTags(tag, seen, 0, 0, 0) {
		return false
	}
	key := make([]uint16, n*H)
	var flips uint16 // bit s: some stage-s cell is flipped
	last := key[(n-1)*H:]
	for c := range last {
		t0 := tag[2*c]
		if t0^tag[2*c+1] != 1<<uint(n-1) {
			return false
		}
		last[c] = t0
		flips |= t0 & (1 << uint(n-1))
	}
	for s := n - 2; s >= 0; s-- {
		prefix := uint16(1)<<uint(s+1) - 1
		row, child, next := key[s*H:(s+1)*H], key[(s+1)*H:(s+2)*H], f.stages[s].next
		for c := range row {
			k0 := child[next[2*c]>>1] & prefix
			if k0^child[next[2*c+1]>>1]&prefix != 1<<uint(s) {
				return false
			}
			row[c] = k0
			flips |= k0 & (1 << uint(s))
		}
	}
	f.tag, f.key, f.flips, f.banyan = tag, key, flips != 0, true
	return true
}

// compilePlanes compiles the dense per-stage reach/port planes, walking
// backward from the terminals one 64-destination word at a time: a cell
// reaches the union of its two children's reach sets and steers port 1
// for the destinations only its port-1 child reaches. Unreachable (cell,
// dst) pairs are tolerated and marked, so non-Banyan networks can still
// be simulated for comparison; pairs where both ports lead to dst
// (multi-path ambiguity) are resolved toward port 0. Either makes the
// fabric non-Banyan.
func (f *Fabric) compilePlanes() {
	n, h, words := f.Spans, f.H, f.words
	stride := 2 * words // plane words per cell
	for s := range f.stages {
		f.stages[s].plane = make([]uint64, h*stride)
	}
	// Last stage: cell c reaches terminals 2c and 2c+1, the odd one
	// through port 1.
	last := f.stages[n-1].plane
	for c := 0; c < h; c++ {
		i := c*stride + (2*c)/64*2
		sh := uint(2*c) % 64
		last[i] = 3 << sh
		last[i+1] = 2 << sh
	}
	for s := n - 2; s >= 0; s-- {
		pl, child, next := f.stages[s].plane, f.stages[s+1].plane, f.stages[s].next
		for c := 0; c < h; c++ {
			c0 := int(next[2*c] >> 1)
			c1 := int(next[2*c+1] >> 1)
			row := pl[c*stride : (c+1)*stride]
			a := child[c0*stride : (c0+1)*stride]
			b := child[c1*stride : (c1+1)*stride]
			for w := 0; w < stride; w += 2 {
				ra, rb := a[w], b[w]
				row[w] = ra | rb
				row[w+1] = rb &^ ra
			}
		}
	}
	full := ^uint64(0)
	if f.N < 64 {
		full = 1<<uint(f.N) - 1
	}
	f.banyan = true
	for i, first := 0, f.stages[0].plane; f.banyan && i < len(first); i += 2 {
		f.banyan = first[i] == full
	}
}

// bitTables builds the bit-sliced kernel's shared all-clear fault masks
// and, on a dense fabric, its path tags, exactly once however many
// goroutines race to the first NewBitWaveRunner. Callers must have
// checked BitSliceable.
func (f *Fabric) bitTables() {
	f.bitOnce.Do(func() {
		if f.key == nil {
			f.pathTag = f.compilePathTags()
		}
		f.zeroFaults = f.NewBitFaultState()
		f.bitBuilt.Store(true)
	})
}

// BitTablesBuilt reports whether the bit-sliced kernel's tables have
// been built, which happens on the fabric's first NewBitWaveRunner.
// Safe to call concurrently with that build.
func (f *Fabric) BitTablesBuilt() bool { return f.bitBuilt.Load() }

// compilePathTags packs the port schedule of every intact (src, dst)
// flight, with one depth-first walk per stage-0 cell: from cell c the
// walk takes both ports at every stage, so each of its N leaves is the
// terminal whose tag is the ports taken on the way down. That is O(N)
// per cell, and sources 2c and 2c+1 share cell c and therefore a row.
// Only BitSliceable fabrics qualify: the walk relies on every stage-0
// cell reaching each terminal along exactly one path (so each leaf is
// written once and is the port the planes steer), and a tag holds at
// most 16 stages. Uniqueness is load-bearing for byte-identity, not
// just the tags: the bit kernel drops a fault-derailed packet on
// arrival at the next stage, which matches the scalar portUnreachable
// lookup only when no off-path cell can reach the destination —
// exactly the Banyan property (a second route from a derailed cell
// would be a second (src, dst) path through the other port of the
// stuck switch). Only dense fabrics build this table.
func (f *Fabric) compilePathTags() []uint16 {
	N := f.N
	tags := make([]uint16, N*N)
	for c := 0; c < f.H; c++ {
		row := tags[2*c*N : (2*c+1)*N]
		f.walkTags(row, nil, 0, c, 0)
		copy(tags[(2*c+1)*N:(2*c+2)*N], row)
	}
	return tags
}

// walkTags writes row[dst] for every terminal below (stage s, cell),
// tag holding the ports taken at stages before s. With a non-nil seen
// bitset it marks each leaf there and reports false as soon as one
// terminal is reached twice.
func (f *Fabric) walkTags(row []uint16, seen []uint64, s, cell int, tag uint16) bool {
	for pt := 0; pt < 2; pt++ {
		out := cell<<1 | pt
		t := tag | uint16(pt)<<uint(s)
		if s < f.Spans-1 {
			if !f.walkTags(row, seen, s+1, int(f.stages[s].next[out]>>1), t) {
				return false
			}
			continue
		}
		if seen != nil {
			w, b := out>>6, uint64(1)<<uint(out&63)
			if seen[w]&b != 0 {
				return false
			}
			seen[w] |= b
		}
		row[out] = t
	}
	return true
}

// bitTags returns the table the bit kernel gathers an intact flight's
// port schedule from, and its row stride: (src, dst) reads
// tags[src*stride+dst]. A tag fabric's table is its N-entry destination
// tags (stride 0, the ports before each cell's flip); a dense fabric's
// is the N² pathTag. Valid once bitTables has run.
func (f *Fabric) bitTags() (tags []uint16, stride int) {
	if f.key != nil {
		return f.tag, 0
	}
	return f.pathTag, f.N
}

// BitSliceable reports whether the bit-sliced wave kernel can drive
// this fabric: Banyan unique-path reachability (see compilePathTags for
// why uniqueness is required) and at most 16 stages. Every tag fabric
// qualifies; other fabrics are scalar-only.
func (f *Fabric) BitSliceable() bool { return f.Spans <= 16 && f.banyan }

// Banyan reports whether the compiled fabric has full unique-path
// reachability: every (stage-0 cell, destination) pair routable and no
// stage ever offered both ports for one destination. A tag fabric is
// Banyan by construction (see compileTags). A dense fabric's answer
// follows from the stage-0 reach sets alone. The paths out of a stage-0
// cell form a binary tree with exactly N leaves, so its reach set is
// full exactly when the leaves are distinct, i.e. every destination has
// one path; and every switch lies in some stage-0 cell's tree (the
// links are bijections), so a switch whose two ports share a
// destination would leave that cell's reach set short.
func (f *Fabric) Banyan() bool { return f.banyan }

// steer is THE 2x2 crossbar decision: the output port a packet at
// (stage s, cell) headed for dst leaves on, honoring the fault state
// (nil or inactive = intact fabric). Returns portFaulted when a fault
// kills the packet here (dead switch, or the only usable outlink
// severed) and portUnreachable when the intact wiring offers no path.
// On a tag fabric one XOR of the destination tag with the cell's key
// answers both questions: dst is reachable exactly when the low s bits
// vanish (the prefix compare, exact by compileTags), and bit s is the
// port. A dense fabric reads its reach/port planes. Allocation-free;
// both simulation models route every packet of every cycle through this
// one function.
//
//minlint:hotpath
func (f *Fabric) steer(fs *FaultState, s, cell, dst int) uint8 {
	var reach bool
	var pt uint8
	if f.key != nil {
		x := f.tag[dst] ^ f.key[s*f.H+cell]
		reach = x&(1<<uint(s)-1) == 0
		pt = uint8(x >> uint(s) & 1)
	} else {
		pl := f.stages[s].plane
		i := (cell*f.words + dst>>6) << 1
		bit := uint(dst) & 63
		reach = pl[i]>>bit&1 == 1
		pt = uint8(pl[i+1] >> bit & 1)
	}
	if fs == nil || !fs.active {
		if !reach {
			return portUnreachable
		}
		return pt
	}
	switch fs.mode[s*f.H+cell] {
	case switchOK:
	case switchDead:
		return portFaulted
	case switchStuck0:
		pt = 0
	case switchStuck1:
		pt = 1
	}
	if !reach {
		return portUnreachable
	}
	out := cell<<1 | int(pt)
	if fs.linkDown[s*f.N+out] {
		return portFaulted
	}
	return pt
}

// forward carries outlink `out` of stage s along the inter-stage wire to
// the next stage's inlink. Must not be called for the last stage, whose
// outlinks are terminals.
//
//minlint:hotpath
func (f *Fabric) forward(s int, out uint64) uint64 {
	return f.stages[s].next.Apply(out)
}

// SteerSweep drives the kernel across the whole fabric once: for every
// stage and cell it steers a destination derived from salt and, when a
// real port comes back, forwards the outlink. It exists for the kernel
// benchmark (steer/forward are unexported); the accumulated return
// value defeats dead-code elimination.
//
//minlint:hotpath
func (f *Fabric) SteerSweep(fs *FaultState, salt int) uint64 {
	var acc uint64
	for s := 0; s < f.Spans; s++ {
		for c := 0; c < f.H; c++ {
			dst := (c*2 + salt) & (f.N - 1)
			pt := f.steer(fs, s, c, dst)
			if pt < portFaulted {
				out := uint64(c)<<1 | uint64(pt)
				if s < f.Spans-1 {
					out = f.forward(s, out)
				}
				acc += out
			}
			acc++
		}
	}
	return acc
}
