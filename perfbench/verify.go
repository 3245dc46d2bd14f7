package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"minequiv/min"
)

// Response shapes, mirroring the server's JSON API field for field, so
// a reference rendered from the min API is byte-comparable with what
// the server sends.
type (
	checkResponse struct {
		Report min.Report       `json:"report"`
		Iso    *min.Isomorphism `json:"iso,omitempty"`
	}
	routeResponse struct {
		Network      string   `json:"network"`
		Path         min.Path `json:"path"`
		TagPositions []int    `json:"tagPositions,omitempty"`
	}
	simulateResponse struct {
		Model string         `json:"model"`
		Wave  *min.WaveStats `json:"wave,omitempty"`
	}
)

// verifier checks every response against a reference computed once per
// distinct (body, codec) through the public min API. Responses are
// reduced to a fingerprint on the request path; references are built
// after the measured phases, so checking costs the measurement nothing
// but one hash per response.
type verifier struct {
	mu   sync.Mutex
	seen map[verifyKey]map[uint64][]byte // fingerprint → one body with it

	nets map[string]*min.Network
}

type verifyKey struct {
	body *reqBody
	bin  bool
}

func newVerifier() *verifier {
	return &verifier{seen: map[verifyKey]map[uint64][]byte{}, nets: map[string]*min.Network{}}
}

// observe records one 200 response body for o and returns its
// fingerprint.
func (v *verifier) observe(o op, body []byte) uint64 {
	h, err := fingerprint(o, body)
	if err != nil { // an unparsable batch envelope can match no reference
		h = 0
	}
	k := verifyKey{o.body, o.bin}
	v.mu.Lock()
	defer v.mu.Unlock()
	m := v.seen[k]
	if m == nil {
		m = map[uint64][]byte{}
		v.seen[k] = m
	}
	if _, ok := m[h]; !ok {
		m[h] = bytes.Clone(body)
	}
	return h
}

// mismatches builds the reference of every distinct request observed
// and returns the fingerprints of the responses that differ from it,
// with a description of the first difference.
func (v *verifier) mismatches(ctx context.Context) (map[verifyKey]map[uint64]bool, string, error) {
	bad, first := map[verifyKey]map[uint64]bool{}, ""
	for k, m := range v.seen {
		want, err := v.reference(ctx, k.body, k.bin)
		if err != nil {
			return nil, "", fmt.Errorf("reference for %s %s: %w", k.body.endpoint, k.body.json, err)
		}
		wantHash := hashBytes(want)
		for h, got := range m {
			if h == wantHash {
				continue
			}
			if bad[k] == nil {
				bad[k] = map[uint64]bool{}
			}
			bad[k][h] = true
			if first == "" {
				first = fmt.Sprintf("%s %s (bin=%t): got %q, want %q",
					k.body.endpoint, k.body.json, k.bin, clip(got), clip(want))
			}
		}
	}
	return bad, first, nil
}

// markMismatches turns every sample whose response differed from its
// reference into a failure.
func markMismatches(samples []sample, bad map[verifyKey]map[uint64]bool) {
	for i := range samples {
		s := &samples[i]
		if s.ok && bad[verifyKey{s.op.body, s.op.bin}][s.hash] {
			s.ok, s.mismatch = false, true
		}
	}
}

func countMismatched(samples []sample) int {
	n := 0
	for i := range samples {
		if samples[i].mismatch {
			n++
		}
	}
	return n
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return b[:300]
	}
	return b
}

func hashBytes(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b)
	return h.Sum64()
}

// fingerprint hashes a response in the normalized form reference
// renders. Batch envelopes carry per-item cache attribution, which
// depends on what ran before; it is dropped, leaving op, status and
// the verbatim sub-response bytes.
func fingerprint(o op, body []byte) (uint64, error) {
	if o.body.endpoint != "batch" {
		return hashBytes(body), nil
	}
	if !o.bin {
		body = bytes.ReplaceAll(body, []byte(`,"cache":"hit"`), nil)
		return hashBytes(bytes.ReplaceAll(body, []byte(`,"cache":"miss"`), nil)), nil
	}
	items, err := parseBinBatch(body)
	if err != nil {
		return 0, err
	}
	return hashBytes(flattenItems(items)), nil
}

type batchResult struct {
	op     string
	status int
	cache  uint64
	body   []byte
}

func flattenItems(items []batchResult) []byte {
	var b []byte
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(len(it.op)))
		b = append(b, it.op...)
		b = binary.AppendUvarint(b, uint64(it.status))
		b = binary.AppendUvarint(b, uint64(len(it.body)))
		b = append(b, it.body...)
	}
	return b
}

// network returns a cached *min.Network, so references for one
// topology share its compiled fabric.
func (v *verifier) network(name string, stages int) (*min.Network, error) {
	key := fmt.Sprintf("%s/%d", name, stages)
	if nw := v.nets[key]; nw != nil {
		return nw, nil
	}
	nw, err := buildNetwork(name, stages)
	if err != nil {
		return nil, err
	}
	v.nets[key] = nw
	return nw, nil
}

// reference renders the response the server must send for b in the
// given codec, in the form fingerprint normalizes to.
func (v *verifier) reference(ctx context.Context, b *reqBody, bin bool) ([]byte, error) {
	if b.endpoint == "batch" {
		var items []batchResult
		for _, it := range b.items {
			ref, err := v.reference(ctx, it, bin)
			if err != nil {
				return nil, err
			}
			items = append(items, batchResult{op: it.endpoint, status: 200, body: bytes.TrimSuffix(ref, []byte("\n"))})
		}
		if bin {
			return flattenItems(items), nil
		}
		var out bytes.Buffer
		out.WriteString(`{"responses":[`)
		for i, it := range items {
			if i > 0 {
				out.WriteByte(',')
			}
			fmt.Fprintf(&out, `{"op":%q,"status":%d,"body":%s}`, it.op, it.status, it.body)
		}
		out.WriteString("]}\n")
		return out.Bytes(), nil
	}
	resp, err := v.compute(ctx, b)
	if err != nil {
		return nil, err
	}
	if bin {
		return encodeBinary(resp)
	}
	var out bytes.Buffer
	err = json.NewEncoder(&out).Encode(resp)
	return out.Bytes(), err
}

// compute answers one single-endpoint request through the min API,
// the way the server's handlers do.
func (v *verifier) compute(ctx context.Context, b *reqBody) (any, error) {
	var spec struct {
		Network string `json:"network"`
		Stages  int    `json:"stages"`
	}
	if err := json.Unmarshal(b.json, &spec); err != nil {
		return nil, err
	}
	nw, err := v.network(spec.Network, spec.Stages)
	if err != nil {
		return nil, err
	}
	switch b.endpoint {
	case "check":
		var req checkReq
		if err := json.Unmarshal(b.json, &req); err != nil {
			return nil, err
		}
		resp := checkResponse{Report: min.Check(nw)}
		if req.Iso && resp.Report.Equivalent {
			iso, err := min.Iso(nw)
			if err != nil {
				return nil, err
			}
			resp.Iso = &iso
		}
		return resp, nil
	case "route":
		var req routeReq
		if err := json.Unmarshal(b.json, &req); err != nil {
			return nil, err
		}
		path, err := min.Route(nw, req.Src, req.Dst)
		if err != nil {
			return nil, err
		}
		resp := routeResponse{Network: nw.Name(), Path: path}
		if tags, err := min.TagPositions(nw); err == nil {
			resp.TagPositions = tags
		}
		return resp, nil
	case "simulate":
		var req simulateReq
		if err := json.Unmarshal(b.json, &req); err != nil {
			return nil, err
		}
		st, err := min.Simulate(ctx, nw, min.WithSeed(req.Seed), min.WithWaves(req.Waves), min.WithKernel(min.KernelAuto))
		if err != nil {
			return nil, err
		}
		return simulateResponse{Model: "wave", Wave: &st}, nil
	}
	return nil, fmt.Errorf("no reference for endpoint %q", b.endpoint)
}

// wireEnc renders the binary wire codec's documented frame layout: an
// 8-byte header ("MB", version 1, shape id, little-endian u32 payload
// length) and a payload of uvarints, zigzag varints, 8-byte IEEE-754
// floats, 0/1 bools, length-prefixed strings and presence-led nillable
// fields. It is written from that specification, independently of the
// server's encoder, so it can serve as the reference for it.
type wireEnc struct{ b []byte }

const (
	shapeCheckResponse    = 2
	shapeRouteResponse    = 4
	shapeSimulateResponse = 6
	shapeBatchResponse    = 8
)

func (e *wireEnc) frame(shape byte, payload func()) []byte {
	e.b = append(e.b, 'M', 'B', 1, shape, 0, 0, 0, 0)
	payload()
	binary.LittleEndian.PutUint32(e.b[4:8], uint32(len(e.b)-8))
	return e.b
}

func (e *wireEnc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *wireEnc) int(v int)    { e.b = binary.AppendVarint(e.b, int64(v)) }
func (e *wireEnc) f64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}
func (e *wireEnc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *wireEnc) str(s string) { e.u64(uint64(len(s))); e.b = append(e.b, s...) }
func (e *wireEnc) ints(s []int) {
	e.bool(s != nil)
	if s != nil {
		e.u64(uint64(len(s)))
		for _, v := range s {
			e.int(v)
		}
	}
}
func (e *wireEnc) stat(s min.Stat) { e.int(s.N); e.f64(s.Mean); e.f64(s.Std); e.f64(s.CI95) }
func (e *wireEnc) windows(ws []min.WindowCheck) {
	e.bool(ws != nil)
	if ws != nil {
		e.u64(uint64(len(ws)))
		for _, w := range ws {
			e.int(w.I)
			e.int(w.J)
			e.int(w.Components)
			e.int(w.Expected)
			e.bool(w.OK)
		}
	}
}

func encodeBinary(resp any) ([]byte, error) {
	var e wireEnc
	switch r := resp.(type) {
	case checkResponse:
		return e.frame(shapeCheckResponse, func() {
			e.str(r.Report.Network)
			e.int(r.Report.Stages)
			e.bool(r.Report.Equivalent)
			e.bool(r.Report.Banyan)
			e.str(r.Report.BanyanViolation)
			e.windows(r.Report.Prefix)
			e.windows(r.Report.Suffix)
			e.bool(r.Iso != nil)
			if r.Iso != nil {
				e.bool(r.Iso.Maps != nil)
				if r.Iso.Maps != nil {
					e.u64(uint64(len(r.Iso.Maps)))
					for _, row := range r.Iso.Maps {
						e.ints(row)
					}
				}
			}
		}), nil
	case routeResponse:
		return e.frame(shapeRouteResponse, func() {
			e.str(r.Network)
			e.int(r.Path.Src)
			e.int(r.Path.Dst)
			e.bool(r.Path.Hops != nil)
			if r.Path.Hops != nil {
				e.u64(uint64(len(r.Path.Hops)))
				for _, h := range r.Path.Hops {
					e.int(h.Stage)
					e.int(h.Cell)
					e.int(h.InPort)
					e.int(h.OutPort)
				}
			}
			e.ints(r.TagPositions)
		}), nil
	case simulateResponse:
		w := r.Wave
		return e.frame(shapeSimulateResponse, func() {
			e.str(r.Model)
			e.bool(true)
			e.str(w.Network)
			e.int(w.Stages)
			e.int(w.Terminals)
			e.str(w.Scenario)
			e.int(w.Waves)
			e.u64(w.Seed)
			e.int(w.Offered)
			e.int(w.Delivered)
			e.int(w.Dropped)
			e.int(w.Misrouted)
			e.int(w.FaultDropped)
			e.stat(w.Throughput)
			e.bool(false) // no buffered-model stats
		}), nil
	}
	return nil, fmt.Errorf("no binary rendering for %T", resp)
}

// parseBinBatch splits a binary /v1/batch response envelope into its
// positional sub-responses: a presence byte, an item count, then per
// item the op string, zigzag status, cache attribution and body bytes.
func parseBinBatch(frame []byte) ([]batchResult, error) {
	if len(frame) < 8 || frame[0] != 'M' || frame[1] != 'B' || frame[3] != shapeBatchResponse ||
		int(binary.LittleEndian.Uint32(frame[4:8])) != len(frame)-8 {
		return nil, errors.New("not a binary batch response frame")
	}
	p := frame[8:]
	bad := errors.New("truncated binary batch response")
	uv := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			p = nil
			return 0
		}
		p = p[n:]
		return v
	}
	bs := func() []byte {
		n := uv()
		if uint64(len(p)) < n {
			p = nil
			return nil
		}
		b := p[:n]
		p = p[n:]
		return b
	}
	if len(p) == 0 || p[0] != 1 {
		return nil, bad
	}
	p = p[1:]
	n := uv()
	var items []batchResult
	for i := uint64(0); i < n && p != nil; i++ {
		var it batchResult
		it.op = string(bs())
		z := uv()
		it.status = int(int64(z>>1) ^ -int64(z&1))
		it.cache = uv()
		it.body = bs()
		items = append(items, it)
	}
	if p == nil || len(p) != 0 || uint64(len(items)) != n {
		return nil, bad
	}
	return items, nil
}
