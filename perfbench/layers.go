package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"minequiv/min"
	"minequiv/minserve"
)

// layerMetrics is every per-layer metric a traced run reports, in
// print order. A workload that never reaches a layer reports it as 0.
// Each ratio is followed by its base.
var layerMetrics = []struct{ name, unit string }{
	{"http.rtt_us.p50", "us"},
	{"handler.check.us.p50", "us"}, {"handler.check.us.p99", "us"},
	{"handler.route.us.p50", "us"}, {"handler.route.us.p99", "us"},
	{"handler.simulate.us.p50", "us"}, {"handler.simulate.us.p99", "us"},
	{"handler.batch.us.p50", "us"}, {"handler.batch.us.p99", "us"},
	{"handler.self_us.p50", "us"},
	{"handler.us.p50.json", "us"}, {"handler.us.p50.bin", "us"},
	{"cache.hit_ratio", "ratio"}, {"cache.lookups", "count"},
	{"cache.evictions", "count"}, {"cache.entries", "count"},
	{"admission.shed", "count"}, {"admission.inflight_peak", "count"},
	{"codec.req_bytes.json", "B"}, {"codec.req_bytes.bin", "B"},
	{"codec.resp_bytes.json", "B"}, {"codec.resp_bytes.bin", "B"},
	{"build.us.p50.n3", "us"}, {"build.us.p50.n4", "us"}, {"build.us.p50.n5", "us"}, {"build.us.p50.n6", "us"},
	{"build.us.p50.n7", "us"}, {"build.us.p50.n8", "us"}, {"build.us.p50.n9", "us"}, {"build.us.p50.n10", "us"},
	{"check.us.p50", "us"}, {"route.us.p50", "us"},
	{"compile.ms.p50.n6", "ms"}, {"compile.ms.p50.n8", "ms"}, {"compile.ms.p50.n10", "ms"},
	{"compile.share", "ratio"}, {"compile.share.base_ms", "ms"},
	{"trace.sim_sum_ratio", "ratio"},
	{"kernel.ns_per_wave.scalar.n6", "ns"}, {"kernel.ns_per_wave.bit.n6", "ns"}, {"kernel.ns_per_wave.auto.n6", "ns"},
	{"kernel.ns_per_wave.scalar.n8", "ns"}, {"kernel.ns_per_wave.bit.n8", "ns"}, {"kernel.ns_per_wave.auto.n8", "ns"},
	{"kernel.ns_per_wave.scalar.n10", "ns"}, {"kernel.ns_per_wave.bit.n10", "ns"}, {"kernel.ns_per_wave.auto.n10", "ns"},
	{"kernel.remainder_share", "ratio"}, {"kernel.waves", "count"},
	{"jobs.submit_us.p50", "us"}, {"jobs.polls_per_job", "count"},
	{"jobs.checkpoint_bytes_per_job", "B"},
	{"jobs.shard_useful_ratio", "ratio"}, {"jobs.shards", "count"},
	{"loadgen.late_ms.p99", "ms"},
	{"trace.overhead_ratio", "ratio"}, {"trace.untraced_p50_ms", "ms"},
	{"fail_ratio", "ratio"},
}

// layers collects a traced run's per-layer figures under their names.
type layers struct {
	res   *result
	units map[string]string
}

func newLayers() *layers {
	l := &layers{res: newResult(), units: map[string]string{}}
	for _, m := range layerMetrics {
		l.units[m.name] = m.unit
		l.res.set(m.name, 0, m.unit)
	}
	return l
}

func (l *layers) set(name string, v float64) {
	unit, ok := l.units[name]
	if !ok {
		panic("unlisted layer metric " + name)
	}
	l.res.set(name, v, unit)
}

// traceRun runs the workload traced and reports per-layer metrics. It
// writes the spans (JSON lines) and a per-span self-time table into
// scratch.
func traceRun(ctx context.Context, cfg config, srv *server, scratch string) (*result, error) {
	tr := newTracer()
	l := newLayers()
	before, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	if cfg.workload == "sweep" {
		err = traceSweep(ctx, cfg, srv, tr, l)
	} else {
		err = traceServe(ctx, cfg, srv, tr, l)
	}
	if err != nil {
		return nil, err
	}
	after, err := srv.scrape(ctx)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	lookups := delta("minserve_cache_hits_total") + delta("minserve_cache_misses_total")
	l.set("cache.lookups", lookups)
	l.set("cache.hit_ratio", ratio(delta("minserve_cache_hits_total"), lookups))
	// Every miss here inserts its response, so inserts beyond the growth
	// in resident entries were evictions.
	l.set("cache.evictions", max(0, delta("minserve_cache_misses_total")-delta("minserve_cache_entries")))
	l.set("cache.entries", after["minserve_cache_entries"])
	l.set("admission.shed", delta("minserve_shed_total"))
	l.set("admission.inflight_peak", after["minserve_in_flight_peak"])
	shards := delta("minserve_job_shards_done_total") + delta("minserve_job_shards_retried_total") +
		delta("minserve_job_shards_stolen_total")
	l.set("jobs.shards", shards)
	l.set("jobs.shard_useful_ratio", ratio(delta("minserve_job_shards_done_total"), shards))
	l.set("jobs.checkpoint_bytes_per_job", ratio(delta("minserve_job_checkpoint_bytes_total"),
		delta("minserve_jobs_completed_total")))

	if err := minLayers(ctx, tr, l, cfg.seed); err != nil {
		return nil, err
	}
	base := filepath.Join(scratch, "trace")
	if err := tr.write(base+".spans.jsonl", base+".selftime.txt"); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans in %s.spans.jsonl, self-time table in %s.selftime.txt\n", base, base)
	return l.res, nil
}

// traceServe runs the serving workload's open loop in three equal-rate
// segments over one request stream — a warm-up, an untraced segment
// and a traced one — then replays the traced segment through an
// in-process twin server fed the same sequence, timing the handler and
// the min calls each of its cache misses implies.
func traceServe(ctx context.Context, cfg config, srv *server, tr *tracer, l *layers) error {
	_, openSeq, err := newSequences(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	rate := serveMixRate
	if cfg.workload == "serve-large" {
		rate = serveLargeRate
	}
	nWarm := max(1, int(rate*0.2*float64(cfg.seconds)))
	nSeg := max(1, int(rate*0.4*float64(cfg.seconds)))
	ops := openSeq.prefix(nWarm + 2*nSeg)
	conns := newConns(srv.base, cfg.conns)
	defer closeConns(conns)
	v := newVerifier()
	warm := openLoop(ctx, conns, ops[:nWarm], rate, v, nil, cfg.mutate)
	untraced := openLoop(ctx, conns, ops[nWarm:nWarm+nSeg], rate, v, nil, cfg.mutate)
	traced := openLoop(ctx, conns, ops[nWarm+nSeg:], rate, v, tr, cfg.mutate)

	bad, first, err := v.mismatches(ctx)
	if err != nil {
		return err
	}
	if first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: wrong response:", first)
	}
	failed, all := 0, 0
	for _, seg := range [][]sample{warm, untraced, traced} {
		markMismatches(seg, bad)
		for i := range seg {
			all++
			if !seg[i].ok {
				failed++
			}
		}
	}
	l.res.Attempted, l.res.Failed, l.res.Correct = all, failed, countMismatched(warm)+
		countMismatched(untraced)+countMismatched(traced) == 0
	l.set("fail_ratio", ratio(float64(failed), float64(all)))

	p50 := func(ss []sample) float64 {
		var xs []float64
		for i := range ss {
			xs = append(xs, ss[i].latencyMs())
		}
		return median(xs)
	}
	l.set("trace.untraced_p50_ms", p50(untraced))
	l.set("trace.overhead_ratio", ratio(p50(traced), p50(untraced)))
	var late []float64
	for i := range untraced {
		if s := &untraced[i]; !s.sent.IsZero() {
			late = append(late, float64(s.sent.Sub(s.due))/1e6)
		}
	}
	l.set("loadgen.late_ms.p99", quantile(late, 0.99))

	bytesBy := map[string][]float64{}
	waves, remainder := 0, 0
	for i := range traced {
		s := &traced[i]
		codec := "json"
		if s.op.bin {
			codec = "bin"
		}
		if s.ok {
			bytesBy["codec.req_bytes."+codec] = append(bytesBy["codec.req_bytes."+codec], float64(s.reqBytes))
			bytesBy["codec.resp_bytes."+codec] = append(bytesBy["codec.resp_bytes."+codec], float64(s.respBytes))
		}
		if s.op.body.endpoint == "simulate" {
			var req simulateReq
			if err := json.Unmarshal(s.op.body.json, &req); err != nil {
				return err
			}
			waves += req.Waves
			remainder += req.Waves % 64
		}
	}
	for name, xs := range bytesBy {
		l.set(name, sum(xs)/float64(len(xs)))
	}
	l.set("kernel.waves", float64(waves))
	l.set("kernel.remainder_share", ratio(float64(remainder), float64(waves)))
	return replayTwin(ctx, tr, l, ops[:nWarm+nSeg], ops[nWarm+nSeg:], traced)
}

// replayTwin feeds an in-process minserve the same request sequence the
// live server saw: the warm-up ops untimed (simulates skipped — they
// leave no cache state), then the traced ops one by one, timing each
// handler call. Each cache miss and each simulate is then replayed
// through the min calls it implies, recorded as the handler's child
// spans.
func replayTwin(ctx context.Context, tr *tracer, l *layers, warm, ops []op, live []sample) error {
	twin, err := minserve.New(minserve.Config{})
	if err != nil {
		return err
	}
	defer twin.Close(ctx)
	h := twin.Handler()
	for _, o := range warm {
		if o.body.endpoint != "simulate" {
			if _, err := serveTwin(h, o); err != nil {
				return err
			}
		}
	}
	handlerUs := map[string][]float64{}
	var self, rtt []float64
	m := &minTimes{}
	for i, o := range ops {
		req := live[i].traceReq
		if req == 0 { // dropped: never sent, so never traced
			req = tr.newRequest()
		}
		t0 := time.Now()
		miss, err := serveTwin(h, o)
		t1 := time.Now()
		if err != nil {
			return err
		}
		us := float64(t1.Sub(t0)) / 1e3
		id := tr.add("handler."+o.body.endpoint, 0, req, t0, t1)
		children, err := m.replay(ctx, tr, id, req, o.body, miss)
		if err != nil {
			return err
		}
		codec := "json"
		if o.bin {
			codec = "bin"
		}
		handlerUs[o.body.endpoint] = append(handlerUs[o.body.endpoint], us)
		handlerUs[codec] = append(handlerUs[codec], us)
		selfUs := max(0, us-float64(children)/1e3)
		self = append(self, selfUs)
		if o.body.endpoint == "simulate" {
			m.simHandlerMs += us / 1e3
			m.simSumMs += selfUs/1e3 + float64(children)/1e6
		}
		if s := &live[i]; s.ok {
			rtt = append(rtt, float64(s.end.Sub(s.sent))/1e3-us)
		}
	}
	for _, ep := range []string{"check", "route", "simulate", "batch"} {
		l.set("handler."+ep+".us.p50", median(handlerUs[ep]))
		l.set("handler."+ep+".us.p99", quantile(handlerUs[ep], 0.99))
	}
	l.set("handler.us.p50.json", median(handlerUs["json"]))
	l.set("handler.us.p50.bin", median(handlerUs["bin"]))
	l.set("handler.self_us.p50", median(self))
	l.set("http.rtt_us.p50", median(rtt))
	l.set("check.us.p50", median(m.check))
	l.set("route.us.p50", median(m.route))
	l.set("compile.share", ratio(m.compileMs, m.simHandlerMs))
	l.set("compile.share.base_ms", m.simHandlerMs)
	l.set("trace.sim_sum_ratio", ratio(m.simSumMs, m.simHandlerMs))
	return nil
}

// serveTwin runs o through the in-process handler and reports which of
// its cacheable parts missed: the request itself, or each batch item.
func serveTwin(h http.Handler, o op) ([]bool, error) {
	payload := o.body.json
	if o.bin {
		var err error
		if payload, err = o.body.binary(); err != nil {
			return nil, err
		}
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/"+o.body.endpoint, bytes.NewReader(payload))
	if o.bin {
		req.Header.Set("Content-Type", minserve.MediaTypeBinary)
		req.Header.Set("Accept", minserve.MediaTypeBinary)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("in-process %s: status %d: %s", o.body.endpoint, rec.Code, clip(rec.Body.Bytes()))
	}
	switch o.body.endpoint {
	case "check", "route":
		return []bool{rec.Header().Get("X-Cache") == "MISS"}, nil
	case "batch":
		var miss []bool
		if o.bin {
			items, err := parseBinBatch(rec.Body.Bytes())
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				miss = append(miss, it.cache == 1)
			}
			return miss, nil
		}
		var env struct {
			Responses []struct {
				Cache string `json:"cache"`
			} `json:"responses"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			return nil, err
		}
		for _, it := range env.Responses {
			miss = append(miss, it.Cache == "miss")
		}
		return miss, nil
	}
	return nil, nil
}

// minTimes accumulates the min-layer times of replayed requests.
type minTimes struct {
	check, route []float64 // µs
	compileMs    float64
	simHandlerMs float64 // handler time of simulate requests
	simSumMs     float64 // their handler self + build + compile + kernel
}

// replay re-runs the min calls the handler made for b — building the
// network and, on a miss, characterizing or routing it; for a
// simulate, the first Simulate on the fresh network and an identical
// warm repeat, whose difference is the fabric compile. It returns the
// summed duration of the handler's implied calls (the warm repeat is
// not one of them).
func (m *minTimes) replay(ctx context.Context, tr *tracer, parent, req int64, b *reqBody, miss []bool) (time.Duration, error) {
	if b.endpoint == "batch" {
		var total time.Duration
		for i, it := range b.items {
			if i < len(miss) && miss[i] {
				d, err := m.replay(ctx, tr, parent, req, it, []bool{true})
				if err != nil {
					return 0, err
				}
				total += d
			}
		}
		return total, nil
	}
	if b.endpoint != "simulate" && (len(miss) == 0 || !miss[0]) {
		return 0, nil
	}
	var r struct {
		simulateReq
		Src, Dst int
		Iso      bool
	}
	if err := json.Unmarshal(b.json, &r); err != nil {
		return 0, err
	}
	t0 := time.Now()
	nw, err := buildNetwork(r.Network, r.Stages)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	tr.add("min.build", parent, req, t0, t1)
	switch b.endpoint {
	case "check":
		rep := min.Check(nw)
		if r.Iso && rep.Equivalent {
			if _, err := min.Iso(nw); err != nil {
				return 0, err
			}
		}
		t2 := time.Now()
		tr.add("min.check", parent, req, t1, t2)
		m.check = append(m.check, float64(t2.Sub(t1))/1e3)
		return t2.Sub(t0), nil
	case "route":
		if _, err := min.Route(nw, r.Src, r.Dst); err != nil {
			return 0, err
		}
		_, _ = min.TagPositions(nw) // an error only means the network has no PIPID schedule
		t2 := time.Now()
		tr.add("min.route", parent, req, t1, t2)
		m.route = append(m.route, float64(t2.Sub(t1))/1e3)
		return t2.Sub(t0), nil
	}
	opts := []min.Option{min.WithSeed(r.Seed), min.WithWaves(r.Waves), min.WithKernel(min.KernelAuto)}
	if _, err := min.Simulate(ctx, nw, opts...); err != nil {
		return 0, err
	}
	t2 := time.Now()
	if _, err := min.Simulate(ctx, nw, opts...); err != nil {
		return 0, err
	}
	t3 := time.Now()
	sim := tr.add("min.simulate", parent, req, t1, t2)
	tr.add("min.simulate.kernel", sim, req, t2, t3)
	m.compileMs += float64(max(0, t2.Sub(t1)-t3.Sub(t2))) / 1e6
	return t2.Sub(t0), nil
}

func buildNetwork(name string, stages int) (*min.Network, error) {
	if name == minserve.TailCycleName {
		return min.TailCycle(stages)
	}
	return min.Build(name, stages)
}

// minLayers times the min entry points directly on the workloads'
// networks: Build at 3–10 stages, the fabric compile (the first
// Simulate on a fresh network minus an identical warm repeat) at 6, 8
// and 10 stages, and each wave kernel per wave on a warm network.
func minLayers(ctx context.Context, tr *tracer, l *layers, seed uint64) error {
	names := networks()
	for st := 3; st <= 10; st++ {
		var us []float64
		for range 5 {
			for _, name := range names {
				t0 := time.Now()
				if _, err := buildNetwork(name, st); err != nil {
					return err
				}
				t1 := time.Now()
				tr.add("min.build", 0, 0, t0, t1)
				us = append(us, float64(t1.Sub(t0))/1e3)
			}
		}
		l.set(fmt.Sprintf("build.us.p50.n%d", st), median(us))
	}
	one := []min.Option{min.WithWaves(1), min.WithSeed(1)}
	for _, c := range []struct{ st, reps int }{{6, 3}, {8, 2}, {10, 1}} {
		var ms []float64
		for range c.reps {
			for _, name := range names {
				nw, err := buildNetwork(name, c.st)
				if err != nil {
					return err
				}
				t0 := time.Now()
				if _, err := min.Simulate(ctx, nw, one...); err != nil {
					return err
				}
				t1 := time.Now()
				if _, err := min.Simulate(ctx, nw, one...); err != nil {
					return err
				}
				t2 := time.Now()
				sim := tr.add("min.simulate", 0, 0, t0, t1)
				tr.add("min.simulate.kernel", sim, 0, t1, t2)
				ms = append(ms, float64(t1.Sub(t0)-t2.Sub(t1))/1e6)
			}
		}
		l.set(fmt.Sprintf("compile.ms.p50.n%d", c.st), median(ms))
	}
	catalog := min.CatalogNames()
	name := catalog[seed%uint64(len(catalog))]
	for _, st := range []int{6, 8, 10} {
		nw, err := buildNetwork(name, st)
		if err != nil {
			return err
		}
		waves := 1 << (18 - st) // whole 64-wave batches at every size
		for _, k := range []min.Kernel{min.KernelScalar, min.KernelBit, min.KernelAuto} {
			opts := []min.Option{min.WithWaves(waves), min.WithKernel(k), min.WithWorkers(1), min.WithSeed(seed)}
			if _, err := min.Simulate(ctx, nw, opts...); err != nil { // compile outside the timing
				return err
			}
			var ns []float64
			for range 3 {
				t0 := time.Now()
				if _, err := min.Simulate(ctx, nw, opts...); err != nil {
					return err
				}
				t1 := time.Now()
				tr.add("min.simulate.kernel", 0, 0, t0, t1)
				ns = append(ns, float64(t1.Sub(t0))/float64(waves))
			}
			l.set(fmt.Sprintf("kernel.ns_per_wave.%s.n%d", k, st), median(ns))
		}
	}
	return nil
}

// traceSweep runs the sweep workload's closed loop with every other job
// traced, and reports the job-plane layer metrics.
func traceSweep(ctx context.Context, cfg config, srv *server, tr *tracer, l *layers) error {
	specs := sweepSpecs(cfg.seed)
	c := newConn(srv.base)
	defer c.close()
	runs, mismatched, first := sweepLoop(ctx, c, specs, secs(float64(cfg.seconds)), tr, cfg.mutate)
	if first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: wrong response:", first)
	}
	var submit, late, untraced, traced []float64
	polls, failed := 0, 0
	for _, r := range runs {
		submit = append(submit, float64(r.submitEnd.Sub(r.submit))/1e3)
		polls += r.polls
		if !r.ok {
			failed++
			continue
		}
		ms := float64(r.end.Sub(r.submit)) / 1e6
		if r.traced {
			traced = append(traced, ms)
		} else {
			untraced = append(untraced, ms)
			late = append(late, r.lateMs...)
		}
	}
	l.res.Attempted, l.res.Failed, l.res.Correct = len(runs), failed, mismatched == 0
	l.set("fail_ratio", ratio(float64(failed), float64(len(runs))))
	l.set("jobs.submit_us.p50", median(submit))
	l.set("jobs.polls_per_job", ratio(float64(polls), float64(len(runs))))
	l.set("loadgen.late_ms.p99", quantile(late, 0.99))
	l.set("trace.untraced_p50_ms", median(untraced))
	l.set("trace.overhead_ratio", ratio(median(traced), median(untraced)))
	// Shards hold 2048 trials (the server default), each run in 64-wave
	// batches; the remainder runs outside them.
	waves, remainder := 0, 0
	for _, r := range runs {
		s := specs[r.spec]
		cells := len(s.Networks) * len(s.Loads)
		waves += s.waves()
		remainder += cells * ((s.TrialsPerCell % 2048) % 64)
	}
	l.set("kernel.waves", float64(waves))
	l.set("kernel.remainder_share", ratio(float64(remainder), float64(waves)))
	return nil
}
