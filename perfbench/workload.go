package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sync"

	"minequiv/min"
	"minequiv/minserve"
)

// reqBody is one distinct work request: its endpoint, its JSON body,
// and — built on first use — the same body in the binary codec.
type reqBody struct {
	endpoint string // check, route, simulate or batch
	json     []byte
	items    []*reqBody // batch sub-requests

	binOnce sync.Once
	bin     []byte
	binErr  error
}

func (b *reqBody) binary() ([]byte, error) {
	b.binOnce.Do(func() { b.bin, b.binErr = minserve.EncodeBinaryRequest(b.endpoint, b.json) })
	return b.bin, b.binErr
}

// op is one request of a generated sequence: a body and the codec it
// travels in (request and response alike).
type op struct {
	body *reqBody
	bin  bool
}

// Request shapes, as the server's JSON API spells them. Only the
// fields the workloads set are listed.
type (
	checkReq struct {
		Network string `json:"network"`
		Stages  int    `json:"stages"`
		Iso     bool   `json:"iso,omitempty"`
	}
	routeReq struct {
		Network string `json:"network"`
		Stages  int    `json:"stages"`
		Src     int    `json:"src"`
		Dst     int    `json:"dst"`
	}
	simulateReq struct {
		Network string `json:"network"`
		Stages  int    `json:"stages"`
		Seed    uint64 `json:"seed"`
		Waves   int    `json:"waves"`
	}
	batchItem struct {
		Op      string          `json:"op"`
		Request json.RawMessage `json:"request"`
	}
	batchReq struct {
		Requests []batchItem `json:"requests"`
	}
)

func newBody(endpoint string, v any) *reqBody {
	data, err := json.Marshal(v)
	if err != nil { // the request shapes above always marshal
		panic(err)
	}
	return &reqBody{endpoint: endpoint, json: data}
}

// networks is every topology a workload draws from: the six catalog
// networks, which the paper proves isomorphic to the baseline, and the
// Banyan counterexample that is not.
func networks() []string { return append(min.CatalogNames(), minserve.TailCycleName) }

// A sequence is an unbounded, deterministic request stream: block k
// is a pure function of (seed, stream, k), so two phases drawing
// different streams never share a fresh simulate, and a phase that
// runs faster only reads further into the same stream.
type sequence struct {
	seed, stream uint64
	block        func(r *rand.Rand) []op

	mu      sync.Mutex
	nblocks int
	flat    []op
}

func (s *sequence) at(i int) op {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i >= len(s.flat) {
		r := rand.New(rand.NewPCG(s.seed^0x9e3779b97f4a7c15, s.stream<<32|uint64(s.nblocks)))
		b := s.block(r)
		s.nblocks++
		s.flat = append(s.flat, b...)
	}
	return s.flat[i]
}

// prefix materialises the first n ops, so an open loop never builds
// bodies on its dispatch path.
func (s *sequence) prefix(n int) []op {
	s.at(n - 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flat[:n:n]
}

// pool is a set of distinct bodies drawn with a skewed popularity: a
// Zipf rank picks the body at that index. Pools are laid out so that
// the body at each rank has the same size for every seed — the seed
// picks its network and contents — so a seed changes the requests but
// not the work they add up to.
type pool struct {
	bodies []*reqBody
}

func (p *pool) draw(r *rand.Rand) *reqBody {
	z := rand.NewZipf(r, 1.1, 1, uint64(len(p.bodies)-1))
	return p.bodies[z.Uint64()]
}

// codecs returns n codec choices, exactly half of them binary, in a
// seeded order.
func codecs(r *rand.Rand, n int) []bool {
	bin := make([]bool, n)
	for i := range n / 2 {
		bin[i] = true
	}
	r.Shuffle(n, func(i, j int) { bin[i], bin[j] = bin[j], bin[i] })
	return bin
}

// serveMix is the serving plane's everyday traffic over 3–6 stage
// networks: check .55, route .25, simulate .10 (32 waves) and batch
// .10, half of each block in each codec. The pools hold far more
// distinct cacheable bodies than the server's 256-entry response
// cache, so hits, misses and evictions all occur.
type serveMix struct {
	check, route, sim, batch *pool
}

func newServeMix(seed uint64) *serveMix {
	r := rand.New(rand.NewPCG(seed, 1))
	names := networks()
	m := &serveMix{check: &pool{}, route: &pool{}, sim: &pool{}, batch: &pool{}}
	// Every (network, stages, iso) check once; rank i has 3 + i%4
	// stages and iso on every other group of four.
	order := r.Perm(len(names))
	for i := range 8 * len(names) {
		m.check.bodies = append(m.check.bodies, newBody("check", checkReq{
			Network: names[order[i/8]], Stages: 3 + i%4, Iso: i/4%2 == 1}))
	}
	for i := range 1024 {
		st := 3 + i%4
		m.route.bodies = append(m.route.bodies, newBody("route", routeReq{
			Network: names[r.IntN(len(names))], Stages: st, Src: r.IntN(1 << st), Dst: r.IntN(1 << st)}))
	}
	for i := range 128 {
		m.sim.bodies = append(m.sim.bodies, newBody("simulate", simulateReq{
			Network: names[r.IntN(len(names))], Stages: 3 + i%4, Seed: 1 + r.Uint64()>>12, Waves: 32}))
	}
	for range 128 {
		var req batchReq
		var items []*reqBody
		for k := range 4 {
			item := m.check.draw(r)
			if k%2 == 1 {
				item = m.route.draw(r)
			}
			req.Requests = append(req.Requests, batchItem{Op: item.endpoint, Request: item.json})
			items = append(items, item)
		}
		b := newBody("batch", req)
		b.items = items
		m.batch.bodies = append(m.batch.bodies, b)
	}
	return m
}

// block is 20 requests in exact mix proportions, shuffled.
func (m *serveMix) block(r *rand.Rand) []op {
	var ops []op
	for _, c := range []struct {
		p *pool
		n int
	}{{m.check, 11}, {m.route, 5}, {m.sim, 2}, {m.batch, 2}} {
		for range c.n {
			ops = append(ops, op{body: c.p.draw(r)})
		}
	}
	r.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i, bin := range codecs(r, len(ops)) {
		ops[i].bin = bin
	}
	return ops
}

// serveLarge mixes cold simulates of 8–10 stage networks (1–32 waves,
// a fresh seed each) with warm checks of 4–6 stage networks, five
// checks per simulate. Simulates cycle through seeded permutations of
// all 21 (network, stages) topologies, so every seed offers the same
// compile work and a compiled-fabric cache could hit.
type serveLarge struct {
	checks []*reqBody
	topos  []simulateReq
}

func newServeLarge() *serveLarge {
	l := &serveLarge{}
	for _, name := range networks() {
		for st := 4; st <= 6; st++ {
			for _, iso := range []bool{false, true} {
				l.checks = append(l.checks, newBody("check", checkReq{Network: name, Stages: st, Iso: iso}))
			}
		}
		for st := 8; st <= 10; st++ {
			l.topos = append(l.topos, simulateReq{Network: name, Stages: st})
		}
	}
	return l
}

// block is one permutation of the 21 topologies, each simulate in a
// shuffled group with five checks, three of the six in each codec.
func (l *serveLarge) block(r *rand.Rand) []op {
	var ops []op
	for _, i := range r.Perm(len(l.topos)) {
		sim := l.topos[i]
		sim.Waves = 1 + r.IntN(32)
		sim.Seed = 1 + r.Uint64()>>12
		group := []op{{body: newBody("simulate", sim)}}
		for range 5 {
			group = append(group, op{body: l.checks[r.IntN(len(l.checks))]})
		}
		r.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		for i, bin := range codecs(r, len(group)) {
			group[i].bin = bin
		}
		ops = append(ops, group...)
	}
	return ops
}

// Streams of one seed: the closed-loop capacity phase and the open
// loop read disjoint request streams.
const (
	streamCapacity = 1
	streamOpen     = 2
)

// newSequences returns a serving workload's capacity and open-loop
// streams, which share the workload's body pools.
func newSequences(workload string, seed uint64) (capacity, open *sequence, err error) {
	var block func(*rand.Rand) []op
	switch workload {
	case "serve-mix":
		block = newServeMix(seed).block
	case "serve-large":
		block = newServeLarge().block
	default:
		return nil, nil, fmt.Errorf("workload %q has no request sequence", workload)
	}
	return &sequence{seed: seed, stream: streamCapacity, block: block},
		&sequence{seed: seed, stream: streamOpen, block: block}, nil
}
