// Command minload drives load against a minserve instance — over the
// network or fully in-process — and reports served RPS and latency
// percentiles as JSON, the serving-plane analogue of the kernel
// BENCH_*.json reports.
//
// Two modes:
//
//   - Closed loop (default): -conns workers issue requests
//     back-to-back; served RPS is the capacity of the box at that
//     concurrency.
//   - Open loop (-rps N, optionally -ramp A:B): arrivals are generated
//     at the target rate independent of completions, the honest way to
//     measure latency under offered load; arrivals that find every
//     worker busy are counted as dropped, not silently coalesced.
//
// The workload is a weighted mix of check/route/simulate/batch/job
// requests (-mix), rotated over -distinct parameter variants so the
// response cache sees a realistic hit pattern rather than one hot key.
// The -codec axis picks the wire codec for the generated load: "json"
// (default) speaks the plain JSON API, "bin" transcodes every request
// body into the negotiated binary codec (application/x-min-bin) at mix
// build time and asks for binary responses, so the same mix measures
// both wire formats and the report's per-op byte counters quantify the
// encoding win alongside the latency one.
// The job op exercises the async plane end to end: it submits a small
// sweep to /v1/jobs and polls the status endpoint until the job
// reaches a terminal state, so its measured latency is
// submit-to-completion and its polling traffic rides the admission
// bypass exactly like a real client's.
//
// Cross-machine comparability: the report embeds refCheckUs, the
// median serial latency of a warm /v1/check on this host, measured
// before the run. Gating against a committed baseline (-baseline)
// scales both served RPS and p99 by the refCheckUs ratio, so CI fails
// on real serving regressions, not on slower runners.
//
// The report, printed and written by -o, is the envelope
// {"codecs":{"<codec>":{...}}} holding the run's one codec row — the
// shape of the committed BENCH_SERVE_10.json and of every -baseline,
// so any report can gate a later run.
//
// Usage:
//
//	minload -inprocess -duration 5s -conns 8 -codec bin -o bin.json
//	minload -addr localhost:8080 -rps 2000 -ramp 500:4000 -duration 30s
//	minload -inprocess -baseline BENCH_SERVE_10.json -max-regress 20 -lint-metrics
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minequiv/minserve"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "minload:", err)
		os.Exit(1)
	}
}

// --- latency histogram ----------------------------------------------

// histGrowth is the geometric bucket ratio: 256 buckets starting at
// 1µs cover ~1µs to ~31s at <7% relative error, enough resolution for
// percentile reporting without per-sample storage.
const (
	histBuckets = 256
	histGrowth  = 1.07
)

// hist is a per-worker latency histogram; workers own one each (no
// sharing, no locks) and the main goroutine merges after the run.
type hist struct {
	buckets [histBuckets]uint64
	count   uint64
	sumUs   float64
	maxUs   float64
}

var histLog = math.Log(histGrowth)

func (h *hist) add(d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	h.count++
	h.sumUs += us
	if us > h.maxUs {
		h.maxUs = us
	}
	idx := 0
	if us > 1 {
		idx = int(math.Log(us) / histLog)
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx]++
}

func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		h.buckets[i] += o.buckets[i]
	}
	h.count += o.count
	h.sumUs += o.sumUs
	if o.maxUs > h.maxUs {
		h.maxUs = o.maxUs
	}
}

// quantile returns the upper bound of the bucket holding the q-th
// sample — a ≤7% overestimate, consistently applied.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum > target {
			return math.Pow(histGrowth, float64(i+1))
		}
	}
	return h.maxUs
}

// --- workload -------------------------------------------------------

// op is one request template: path plus a rotation of bodies. idx is
// the op's position in the mix slice, the coordinate of its per-op
// counters.
type op struct {
	name   string
	idx    int
	weight float64
	bodies []string
}

// endpointFor maps a mix op name to the minserve endpoint name it
// posts to ("job" submits to /v1/jobs, "simfault" is a simulate body).
func endpointFor(name string) string {
	switch name {
	case "job":
		return "jobs"
	case "simfault":
		return "simulate"
	}
	return name
}

// opCounters is the per-op traffic accounting, shared across workers.
// bytesOut counts request-body bytes sent, bytesIn response-body bytes
// received (for the job op: submit plus every status poll), so the
// report shows the wire-size win of a codec, not just its latency.
type opCounters struct {
	requests atomic.Uint64
	bytesIn  atomic.Uint64
	bytesOut atomic.Uint64
}

// buildMix parses "check=0.55,route=0.25,simulate=0.1,batch=0.1" into
// weighted ops with -distinct body variants each.
func buildMix(spec string, stages, waves, distinct int) ([]op, error) {
	if distinct < 1 {
		distinct = 1
	}
	networks := []string{"omega", "baseline", "indirect-binary-cube", "flip"}
	checkBody := func(i int) string {
		st := 3 + i%(stages-2)
		return fmt.Sprintf(`{"network":%q,"stages":%d}`, networks[i%len(networks)], st)
	}
	bodies := func(gen func(int) string) []string {
		out := make([]string, distinct)
		for i := range out {
			out[i] = gen(i)
		}
		return out
	}
	gens := map[string]func(int) string{
		"check": checkBody,
		"route": func(i int) string {
			st := 3 + i%(stages-2)
			n := 1 << st
			return fmt.Sprintf(`{"network":%q,"stages":%d,"src":%d,"dst":%d}`,
				networks[i%len(networks)], st, i%n, (i*7+3)%n)
		},
		"simulate": func(i int) string {
			st := 3 + i%(stages-2)
			return fmt.Sprintf(`{"network":%q,"stages":%d,"waves":%d,"seed":%d}`,
				networks[i%len(networks)], st, waves, i+1)
		},
		// Degraded-fabric sweeps: simulate with a long pinned fault list,
		// the request shape where the wire codec dominates the cost (the
		// fault array is most of the body) rather than the kernel.
		"simfault": func(i int) string {
			st := 3 + i%(stages-2)
			n := 1 << st
			faults := make([]string, 0, 128)
			for j := 0; j < 128; j++ {
				switch j % 3 {
				case 0:
					faults = append(faults, fmt.Sprintf(`{"kind":"switch-dead","stage":%d,"cell":%d}`, j%st, (i+j)%(n/2)))
				case 1:
					faults = append(faults, fmt.Sprintf(`{"kind":"switch-stuck1","stage":%d,"cell":%d}`, j%st, (i+j)%(n/2)))
				default:
					faults = append(faults, fmt.Sprintf(`{"kind":"link-down","stage":%d,"link":%d}`, j%st, (i+j)%n))
				}
			}
			return fmt.Sprintf(`{"network":%q,"stages":%d,"waves":%d,"seed":%d,"faults":{"faults":[%s]}}`,
				networks[i%len(networks)], st, waves, i+1, strings.Join(faults, ","))
		},
		"batch": func(i int) string {
			var items []string
			for j := 0; j < 4; j++ {
				items = append(items, fmt.Sprintf(`{"op":"check","request":%s}`, checkBody(i*4+j)))
			}
			return `{"requests":[` + strings.Join(items, ",") + `]}`
		},
		// Small sweeps: a handful of shards each, so one job completes in
		// well under a second and the op measures the whole job-plane
		// round trip rather than a single long simulation.
		"job": func(i int) string {
			st := 3 + i%(stages-2)
			return fmt.Sprintf(`{"networks":[%q],"stages":%d,"trialsPerCell":%d,"shardTrials":%d,"seed":%d}`,
				networks[i%len(networks)], st, 4*waves, waves, i+1)
		},
	}
	var ops []op
	for _, part := range strings.Split(spec, ",") {
		name, wstr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("mix entry %q: want op=weight", part)
		}
		w, err := strconv.ParseFloat(wstr, 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		gen, ok := gens[name]
		if !ok {
			return nil, fmt.Errorf("mix entry %q: unknown op (check, route, simulate, simfault, batch, job)", part)
		}
		if w == 0 {
			continue
		}
		ops = append(ops, op{name: name, weight: w, bodies: bodies(gen)})
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("empty mix %q", spec)
	}
	total := 0.0
	for i := range ops {
		total += ops[i].weight
	}
	for i := range ops {
		ops[i].weight /= total
		ops[i].idx = i
	}
	return ops, nil
}

// transcodeMix rewrites every request body in the mix into the binary
// wire codec, once, at build time — workers then send pre-encoded
// frames, so the generator measures the server's decode cost, not its
// own encode cost.
func transcodeMix(ops []op) error {
	for i := range ops {
		endpoint := endpointFor(ops[i].name)
		for j, body := range ops[i].bodies {
			enc, err := minserve.EncodeBinaryRequest(endpoint, []byte(body))
			if err != nil {
				return fmt.Errorf("transcode %s body: %w", ops[i].name, err)
			}
			ops[i].bodies[j] = string(enc)
		}
	}
	return nil
}

// pick selects an op by weight from r.
func pick(ops []op, r *rand.Rand) *op {
	x := r.Float64()
	for i := range ops {
		if x < ops[i].weight {
			return &ops[i]
		}
		x -= ops[i].weight
	}
	return &ops[len(ops)-1]
}

// --- dispatch -------------------------------------------------------

// target abstracts where requests go: a live server over TCP or the
// handler called in-process (no sockets, no syscalls — the same mode
// the CI serving-bench job uses, so runner networking never skews the
// gate).
// post returns the response-body size alongside the status so the
// per-op byte counters stay honest even when the body is discarded.
type target interface {
	post(path, body string) (status int, respBytes int, err error)
	postRead(path, body string) (status int, respBody []byte, err error)
	get(path string) (status int, body []byte, err error)
}

type httpTarget struct {
	base   string
	client *http.Client
	binary bool // send binary bodies, ask for binary responses
}

func (t *httpTarget) do(method, path, body string) (*http.Response, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != "" {
		if t.binary {
			req.Header.Set("Content-Type", minserve.MediaTypeBinary)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		req.ContentLength = int64(len(body))
	}
	if t.binary {
		req.Header.Set("Accept", minserve.MediaTypeBinary)
	}
	return t.client.Do(req)
}

func (t *httpTarget) post(path, body string) (int, int, error) {
	resp, err := t.do("POST", path, body)
	if err != nil {
		return 0, 0, err
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, int(n), nil
}

func (t *httpTarget) postRead(path, body string) (int, []byte, error) {
	resp, err := t.do("POST", path, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (t *httpTarget) get(path string) (int, []byte, error) {
	resp, err := t.do("GET", path, "")
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// nullWriter is the in-process ResponseWriter: it keeps the status and
// discards the body (the generator measures the server, not itself).
type nullWriter struct {
	h      http.Header
	status int
	n      int64
}

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *nullWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

type inprocTarget struct {
	h      http.Handler
	binary bool // send binary bodies, ask for binary responses
}

func (t *inprocTarget) newRequest(method, path, body string) *http.Request {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, _ := http.NewRequest(method, "http://minload"+path, rd)
	if body != "" {
		if t.binary {
			req.Header.Set("Content-Type", minserve.MediaTypeBinary)
		} else {
			req.Header.Set("Content-Type", "application/json")
		}
		req.ContentLength = int64(len(body))
	}
	if t.binary {
		req.Header.Set("Accept", minserve.MediaTypeBinary)
	}
	return req
}

func (t *inprocTarget) post(path, body string) (int, int, error) {
	w := &nullWriter{h: make(http.Header)}
	t.h.ServeHTTP(w, t.newRequest("POST", path, body))
	return w.status, int(w.n), nil
}

func (t *inprocTarget) postRead(path, body string) (int, []byte, error) {
	var buf bytes.Buffer
	rec := &captureWriter{h: make(http.Header), body: &buf}
	t.h.ServeHTTP(rec, t.newRequest("POST", path, body))
	return rec.status, buf.Bytes(), nil
}

func (t *inprocTarget) get(path string) (int, []byte, error) {
	var buf bytes.Buffer
	rec := &captureWriter{h: make(http.Header), body: &buf}
	t.h.ServeHTTP(rec, t.newRequest("GET", path, ""))
	return rec.status, buf.Bytes(), nil
}

type captureWriter struct {
	h      http.Header
	status int
	body   *bytes.Buffer
}

func (w *captureWriter) Header() http.Header { return w.h }
func (w *captureWriter) WriteHeader(s int) {
	if w.status == 0 {
		w.status = s
	}
}
func (w *captureWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.body.Write(p)
}

// jobPollInterval paces the job op's status polling; the reads bypass
// admission server-side, so this bounds client chatter, not load.
const jobPollInterval = 5 * time.Millisecond

// jobStatus is the slice of the wire status the driver needs. minload
// speaks the HTTP protocol (it may target a remote build), so it
// matches fields by wire name rather than importing the jobs package.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
}

func jobTerminal(state string) bool {
	return state != "pending" && state != "running"
}

// doOp issues one mix operation and returns the status plus the wire
// bytes it moved (request bodies out, response bodies in). Every op
// except job is a single POST; job submits a sweep and polls until the
// job leaves the live states, so its latency sample spans
// submit-to-completion and its byte counts include the polling. A run
// deadline that lands mid-poll abandons the job (the server finishes
// it alone) and reports the submit's status.
func doOp(ctx context.Context, tgt target, name, body string) (status, bytesOut, bytesIn int, err error) {
	bytesOut = len(body)
	if name != "job" {
		status, n, err := tgt.post("/v1/"+endpointFor(name), body)
		return status, bytesOut, n, err
	}
	status, resp, err := tgt.postRead("/v1/jobs", body)
	bytesIn = len(resp)
	if err != nil || status != http.StatusAccepted {
		return status, bytesOut, bytesIn, err
	}
	var st jobStatus
	if err := json.Unmarshal(resp, &st); err != nil {
		return 0, bytesOut, bytesIn, fmt.Errorf("job submit response: %w", err)
	}
	for !jobTerminal(st.State) {
		if ctx.Err() != nil {
			return status, bytesOut, bytesIn, nil
		}
		time.Sleep(jobPollInterval)
		code, b, err := tgt.get("/v1/jobs/" + st.ID)
		bytesIn += len(b)
		if err != nil || code != http.StatusOK {
			return code, bytesOut, bytesIn, err
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return 0, bytesOut, bytesIn, fmt.Errorf("job status response: %w", err)
		}
	}
	if st.State != "done" {
		return http.StatusInternalServerError, bytesOut, bytesIn, nil
	}
	return http.StatusOK, bytesOut, bytesIn, nil
}

// --- report ---------------------------------------------------------

type latencyReport struct {
	P50Us  float64 `json:"p50Us"`
	P90Us  float64 `json:"p90Us"`
	P99Us  float64 `json:"p99Us"`
	MeanUs float64 `json:"meanUs"`
	MaxUs  float64 `json:"maxUs"`
}

// opReport is one op's traffic share of the run.
type opReport struct {
	Requests uint64 `json:"requests"`
	BytesIn  uint64 `json:"bytesIn"`
	BytesOut uint64 `json:"bytesOut"`
}

// report is one codec's row of the committed/gated artifact.
type report struct {
	Mode        string        `json:"mode"` // "closed" or "open"
	Mix         string        `json:"mix"`
	Codec       string        `json:"codec"`
	Conns       int           `json:"conns"`
	DurationSec float64       `json:"durationSec"`
	RefCheckUs  float64       `json:"refCheckUs"`
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`
	Shed        uint64        `json:"shed"`
	Dropped     uint64        `json:"dropped,omitempty"` // open loop only
	OfferedRPS  float64       `json:"offeredRPS,omitempty"`
	ServedRPS   float64       `json:"servedRPS"`
	Latency     latencyReport `json:"latency"`

	// Ops breaks traffic down per mix op; bytesIn/bytesOut make the
	// wire-size delta between codecs a committed, gateable number.
	Ops map[string]opReport `json:"ops,omitempty"`
}

// codecBaselines is the one report shape: one row per codec, keyed
// "json"/"bin". A run prints and writes (-o) its own row in it, and
// BENCH_SERVE_10.json holds both rows, so a single committed file
// gates both wire formats.
type codecBaselines struct {
	Codecs map[string]report `json:"codecs"`
}

// --- main loop ------------------------------------------------------

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("minload", flag.ContinueOnError)
	addr := fs.String("addr", "", "target host:port (mutually exclusive with -inprocess)")
	inproc := fs.Bool("inprocess", false, "drive an in-process minserve handler (no sockets)")
	duration := fs.Duration("duration", 10*time.Second, "measured run length (after warmup)")
	warmup := fs.Duration("warmup", time.Second, "unmeasured warmup length")
	rps := fs.Float64("rps", 0, "open-loop target arrival rate (0 = closed loop)")
	ramp := fs.String("ramp", "", "open-loop rate ramp start:end over the run (overrides -rps)")
	conns := fs.Int("conns", 8, "concurrent workers (closed loop) / max outstanding (open loop)")
	mixSpec := fs.String("mix", "check=0.55,route=0.25,simulate=0.1,batch=0.1", "weighted op mix")
	codecName := fs.String("codec", "json", "wire codec for the generated load: json or bin")
	stages := fs.Int("stages", 6, "largest network stages in the generated workload")
	waves := fs.Int("waves", 32, "waves per generated simulate request")
	distinct := fs.Int("distinct", 16, "distinct request variants per op (cache realism)")
	seed := fs.Int64("seed", 1, "workload selection seed")
	out := fs.String("o", "", "write the JSON report here (default stdout only)")
	baseline := fs.String("baseline", "", "gate against this committed report")
	maxRegress := fs.Float64("max-regress", 20, "allowed served-RPS/p99 regression vs baseline, percent")
	lintMetrics := fs.Bool("lint-metrics", false, "fetch /metrics after the run and lint the exposition")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *conns < 1 {
		return fmt.Errorf("-conns must be >= 1")
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration must be > 0")
	}
	if *stages < 3 {
		return fmt.Errorf("-stages must be >= 3")
	}
	if (*addr == "") == !*inproc {
		return fmt.Errorf("exactly one of -addr or -inprocess is required")
	}
	if *codecName != "json" && *codecName != "bin" {
		return fmt.Errorf("-codec must be json or bin, got %q", *codecName)
	}
	binary := *codecName == "bin"

	// calTgt always speaks JSON: refCheckUs must measure the same thing
	// on every run so the cross-machine normalization stays comparable
	// across codec rows.
	var tgt, calTgt target
	if *inproc {
		svc, err := minserve.New(minserve.Config{})
		if err != nil {
			return err
		}
		// The job plane is in memory (no JobsDir): a drain cut short
		// loses nothing, so its error is not reported.
		defer func() { _ = svc.Close(ctx) }()
		h := svc.Handler()
		tgt = &inprocTarget{h: h, binary: binary}
		calTgt = &inprocTarget{h: h}
	} else {
		client := &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: *conns * 2},
			Timeout:   30 * time.Second,
		}
		tgt = &httpTarget{base: "http://" + *addr, client: client, binary: binary}
		calTgt = &httpTarget{base: "http://" + *addr, client: client}
	}

	ops, err := buildMix(*mixSpec, *stages, *waves, *distinct)
	if err != nil {
		return err
	}
	if binary {
		if err := transcodeMix(ops); err != nil {
			return err
		}
	}

	// Calibration: median serial warm-check latency, for cross-machine
	// normalization of the committed baseline.
	refUs, err := calibrate(calTgt)
	if err != nil {
		return fmt.Errorf("calibration: %w", err)
	}

	rep := report{
		Mix:        *mixSpec,
		Codec:      *codecName,
		Conns:      *conns,
		RefCheckUs: refUs,
	}

	rampStart, rampEnd := *rps, *rps
	if *ramp != "" {
		a, b, ok := strings.Cut(*ramp, ":")
		if !ok {
			return fmt.Errorf("-ramp wants start:end")
		}
		if rampStart, err = strconv.ParseFloat(a, 64); err != nil {
			return fmt.Errorf("-ramp start: %w", err)
		}
		if rampEnd, err = strconv.ParseFloat(b, 64); err != nil {
			return fmt.Errorf("-ramp end: %w", err)
		}
	}
	open := rampStart > 0 || rampEnd > 0

	// Warmup: unmeasured closed-loop traffic primes the cache and the
	// runtime.
	if *warmup > 0 {
		warmCtx, cancel := context.WithTimeout(ctx, *warmup)
		runClosed(warmCtx, tgt, ops, *conns, *seed+1, nil, nil, nil)
		cancel()
	}

	runCtx, cancel := context.WithTimeout(ctx, *duration)
	defer cancel()
	counters := make([]opCounters, len(ops))
	var (
		merged   hist
		requests uint64
		errsN    uint64
		shed     uint64
		dropped  uint64
		elapsed  time.Duration
	)
	startT := time.Now()
	if open {
		rep.Mode = "open"
		requests, errsN, shed, dropped = runOpen(runCtx, tgt, ops, *conns, *seed, rampStart, rampEnd, *duration, &merged, counters)
		offered := (rampStart + rampEnd) / 2
		rep.OfferedRPS = offered
		rep.Dropped = dropped
	} else {
		rep.Mode = "closed"
		var errCount, shedCount atomic.Uint64
		requests = runClosed(runCtx, tgt, ops, *conns, *seed, &merged, counters, func(status int) {
			switch {
			case status == http.StatusTooManyRequests:
				shedCount.Add(1)
			case status >= 400:
				errCount.Add(1)
			}
		})
		errsN, shed = errCount.Load(), shedCount.Load()
	}
	elapsed = time.Since(startT)

	rep.Ops = make(map[string]opReport, len(ops))
	for i := range ops {
		rep.Ops[ops[i].name] = opReport{
			Requests: counters[i].requests.Load(),
			BytesIn:  counters[i].bytesIn.Load(),
			BytesOut: counters[i].bytesOut.Load(),
		}
	}

	rep.DurationSec = elapsed.Seconds()
	rep.Requests = requests
	rep.Errors = errsN
	rep.Shed = shed
	rep.ServedRPS = float64(requests-errsN-shed) / elapsed.Seconds()
	rep.Latency = latencyReport{
		P50Us:  merged.quantile(0.50),
		P90Us:  merged.quantile(0.90),
		P99Us:  merged.quantile(0.99),
		MeanUs: merged.sumUs / math.Max(1, float64(merged.count)),
		MaxUs:  merged.maxUs,
	}

	data, err := json.MarshalIndent(codecBaselines{Codecs: map[string]report{rep.Codec: rep}}, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}

	if *lintMetrics {
		status, text, err := tgt.get("/metrics")
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("fetch /metrics: status %d err %v", status, err)
		}
		if err := minserve.LintExposition(text); err != nil {
			return fmt.Errorf("metrics lint: %w", err)
		}
		fmt.Fprintln(w, "minload: /metrics exposition lint-clean")
	}

	if *baseline != "" {
		if err := gate(w, rep, *baseline, *maxRegress); err != nil {
			return err
		}
	}
	return nil
}

// calibrate measures the median serial latency of a warm /v1/check.
func calibrate(tgt target) (float64, error) {
	const body = `{"network":"omega","stages":4}`
	// Warm the cache first.
	for i := 0; i < 10; i++ {
		if status, _, err := tgt.post("/v1/check", body); err != nil || status != http.StatusOK {
			return 0, fmt.Errorf("warm check: status %d err %v", status, err)
		}
	}
	samples := make([]float64, 300)
	for i := range samples {
		start := time.Now()
		if _, _, err := tgt.post("/v1/check", body); err != nil {
			return 0, err
		}
		samples[i] = float64(time.Since(start)) / float64(time.Microsecond)
	}
	sort.Float64s(samples)
	return samples[len(samples)/2], nil
}

// runClosed drives conns workers back-to-back until ctx expires.
// h (merged histogram), counters, and onStatus may be nil (warmup).
func runClosed(ctx context.Context, tgt target, ops []op, conns int, seed int64, h *hist, counters []opCounters, onStatus func(int)) uint64 {
	var total atomic.Uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(seed), uint64(c)*7919))
			local := &hist{}
			n := uint64(0)
			for ctx.Err() == nil {
				o := pick(ops, rng)
				body := o.bodies[rng.IntN(len(o.bodies))]
				start := time.Now()
				status, bOut, bIn, err := doOp(ctx, tgt, o.name, body)
				if err != nil {
					status = 0
				}
				local.add(time.Since(start))
				n++
				if counters != nil {
					cnt := &counters[o.idx]
					cnt.requests.Add(1)
					cnt.bytesOut.Add(uint64(bOut))
					cnt.bytesIn.Add(uint64(bIn))
				}
				if onStatus != nil {
					if err != nil {
						onStatus(599)
					} else {
						onStatus(status)
					}
				}
			}
			total.Add(n)
			if h != nil {
				mu.Lock()
				h.merge(local)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return total.Load()
}

// runOpen generates arrivals at the (possibly ramping) target rate on
// a central pacer; conns workers consume them. Arrivals that find the
// queue full are dropped and counted — open-loop honesty: a saturated
// server must not slow the arrival process down.
func runOpen(ctx context.Context, tgt target, ops []op, conns int, seed int64, rateStart, rateEnd float64, dur time.Duration, h *hist, counters []opCounters) (requests, errsN, shed, dropped uint64) {
	type job struct {
		op, body string
		idx      int
	}
	queue := make(chan job, conns*2)
	var errCount, shedCount, dropCount, total atomic.Uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			local := &hist{}
			for j := range queue {
				start := time.Now()
				status, bOut, bIn, err := doOp(ctx, tgt, j.op, j.body)
				local.add(time.Since(start))
				total.Add(1)
				if counters != nil {
					cnt := &counters[j.idx]
					cnt.requests.Add(1)
					cnt.bytesOut.Add(uint64(bOut))
					cnt.bytesIn.Add(uint64(bIn))
				}
				switch {
				case err != nil:
					errCount.Add(1)
				case status == http.StatusTooManyRequests:
					shedCount.Add(1)
				case status >= 400:
					errCount.Add(1)
				}
			}
			mu.Lock()
			h.merge(local)
			mu.Unlock()
		}(c)
	}

	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	start := time.Now()
	for ctx.Err() == nil {
		frac := float64(time.Since(start)) / float64(dur)
		if frac > 1 {
			frac = 1
		}
		rate := rateStart + (rateEnd-rateStart)*frac
		if rate <= 0 {
			rate = 1
		}
		interval := time.Duration(float64(time.Second) / rate)
		o := pick(ops, rng)
		j := job{op: o.name, body: o.bodies[rng.IntN(len(o.bodies))], idx: o.idx}
		select {
		case queue <- j:
		default:
			dropCount.Add(1)
		}
		timer := time.NewTimer(interval)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
	}
	close(queue)
	wg.Wait()
	return total.Load(), errCount.Load(), shedCount.Load(), dropCount.Load()
}

// gate compares the run against the row for its -codec in a baseline
// envelope ({"codecs":{"json":{...},"bin":{...}}}), normalized by the
// refCheckUs ratio so a slower runner is not a false regression.
func gate(w io.Writer, cur report, baselinePath string, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var split codecBaselines
	if err := json.Unmarshal(data, &split); err != nil {
		return fmt.Errorf("baseline %s: %w", baselinePath, err)
	}
	base, ok := split.Codecs[cur.Codec]
	if !ok {
		return fmt.Errorf("baseline %s has no %q codec row", baselinePath, cur.Codec)
	}
	if base.RefCheckUs <= 0 || cur.RefCheckUs <= 0 {
		return fmt.Errorf("baseline gating needs refCheckUs on both sides")
	}
	// speed > 1: this machine is faster than the baseline's.
	speed := base.RefCheckUs / cur.RefCheckUs
	normServed := cur.ServedRPS / speed
	normP99 := cur.Latency.P99Us * speed
	fmt.Fprintf(w, "minload: baseline gate (speed ratio %.2f): servedRPS %.0f (norm %.0f, floor %.0f), p99 %.0fus (norm %.0f, ceil %.0f)\n",
		speed, cur.ServedRPS, normServed, base.ServedRPS*(1-maxRegress/100),
		cur.Latency.P99Us, normP99, base.Latency.P99Us*(1+maxRegress/100))
	if normServed < base.ServedRPS*(1-maxRegress/100) {
		return fmt.Errorf("served RPS regression: normalized %.0f < %.0f (baseline %.0f - %.0f%%)",
			normServed, base.ServedRPS*(1-maxRegress/100), base.ServedRPS, maxRegress)
	}
	if normP99 > base.Latency.P99Us*(1+maxRegress/100) {
		return fmt.Errorf("p99 regression: normalized %.0fus > %.0fus (baseline %.0f + %.0f%%)",
			normP99, base.Latency.P99Us*(1+maxRegress/100), base.Latency.P99Us, maxRegress)
	}
	fmt.Fprintln(w, "minload: within baseline envelope")
	return nil
}
