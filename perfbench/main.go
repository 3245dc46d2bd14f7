// Command perfbench is the repository's end-to-end benchmark. It starts
// cmd/minserve as its own process on loopback, drives one seeded
// workload against it from this single process over at most nproc
// connections, checks every response against a reference computed
// through the public min API, and prints each metric by name and unit,
// ending with one JSON result line.
//
// Usage (run.sh builds both binaries first):
//
//	perfbench -server path/to/minserve -workload serve-mix -seed 1 -seconds 30 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// runs the same workload traced and reports per-layer metrics, writing
// a span file and a self-time table under -scratch. README.md lists
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
)

// Open-loop arrival rates, about a quarter of each workload's
// closed-loop capacity on a 2-vCPU x86-64 host; README.md says why not
// half.
const (
	serveMixRate   = 3000.0 // requests per second
	serveLargeRate = 80.0
)

// setupSpawns is how many times each run starts the server to time
// its set-up; the median is reported.
const setupSpawns = 15

var workloads = []string{"serve-mix", "serve-large", "sweep"}

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	server   string // the minserve binary
	scratch  string // job checkpoints and span files go under here
	conns    int
	// mutate, when set, rewrites each response body before it is
	// checked; the self-test injects a wrong response through it.
	mutate func([]byte) []byte
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome. Metrics is what the JSON line carries;
// notes are further workload-specific figures, printed by name and
// unit but not part of the JSON result.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
	notes []note
}

type note struct {
	name  string
	value float64
	unit  string
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, value float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: finite(value), Unit: unit}
}

func (r *result) note(name string, value float64, unit string) {
	r.notes = append(r.notes, note{name, finite(value), unit})
}

func (r *result) print(w io.Writer, workload string) error {
	for _, n := range r.order {
		fmt.Fprintf(w, "%-12s %-36s %16.6f %s\n", workload, n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "%-12s %-36s %16.6f %s (not gated)\n", workload, n.name, n.value, n.unit)
	}
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func main() {
	// The generator allocates per request; collecting less often keeps
	// its own pauses out of the latencies it measures.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: serve-mix, serve-large or sweep")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same requests")
	fs.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	fs.StringVar(&cfg.server, "server", "", "path to the minserve binary")
	fs.StringVar(&cfg.scratch, "scratch", ".bench_build/runs", "directory for job checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.trace = *traceFlag == 1
	cfg.conns = runtime.NumCPU()
	switch {
	case cfg.server == "":
		return errors.New("-server is required")
	case cfg.seconds < 1:
		return fmt.Errorf("-seconds must be at least 1, got %d", cfg.seconds)
	case *traceFlag != 0 && *traceFlag != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	return res.print(stdout, cfg.workload)
}

func runWorkload(ctx context.Context, cfg config) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (known: %v)", cfg.workload, workloads)
	}
	scratch, err := filepath.Abs(filepath.Join(cfg.scratch, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(scratch, "jobs"))
	srv, setup, err := setUp(cfg.server, filepath.Join(scratch, "jobs"), setupSpawns)
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	switch {
	case cfg.trace:
		return traceRun(ctx, cfg, srv, scratch)
	case cfg.workload == "sweep":
		return sweepRun(ctx, cfg, srv, setup)
	default:
		return serveRun(ctx, cfg, srv, setup)
	}
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func newConns(base string, n int) []*conn {
	conns := make([]*conn, n)
	for i := range conns {
		conns[i] = newConn(base)
	}
	return conns
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

// serveRun measures serve-mix or serve-large: a closed-loop capacity
// phase with one client per connection (its first quarter warms the
// caches and is not counted), then the open loop at the workload's
// fixed rate over a disjoint request stream.
func serveRun(ctx context.Context, cfg config, srv *server, setup float64) (*result, error) {
	capSeq, openSeq, err := newSequences(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	rate := serveMixRate
	if cfg.workload == "serve-large" {
		rate = serveLargeRate
	}
	capDur := secs(0.4 * float64(cfg.seconds))
	openDur := 0.6 * float64(cfg.seconds)
	conns := newConns(srv.base, cfg.conns)
	defer closeConns(conns)
	v := newVerifier()

	capSamples, capacity := closedLoop(ctx, conns, capSeq, capDur, capDur/4, v, cfg.mutate)
	ops := openSeq.prefix(max(1, int(rate*openDur)))
	samples := openLoop(ctx, conns, ops, rate, v, nil, cfg.mutate)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	bad, first, err := v.mismatches(ctx)
	if err != nil {
		return nil, err
	}
	markMismatches(samples, bad)
	markMismatches(capSamples, bad)
	all := append(samples[:len(samples):len(samples)], capSamples...)
	if first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: wrong response:", first)
	}

	lat := func(endpoint string) []float64 {
		var xs []float64
		for i := range samples {
			if endpoint == "" || samples[i].op.body.endpoint == endpoint {
				xs = append(xs, samples[i].latencyMs())
			}
		}
		return xs
	}
	res := newResult()
	res.Attempted = len(all)
	for i := range all {
		if s := &all[i]; !s.ok {
			if res.Failed == 0 && !s.mismatch {
				fmt.Fprintf(os.Stderr, "perfbench: %s request failed: %s\n", s.op.body.endpoint, s.statusOrError)
			}
			res.Failed++
		}
	}
	res.Correct = countMismatched(all) == 0
	// The headline operation of serve-large is the cold simulate; its
	// checks, whose median rides how often both cores are compiling,
	// are there for check_p99_ms.
	headline := ""
	if cfg.workload == "serve-large" {
		headline = "simulate"
	}
	res.set("setup_s", setup, "s")
	res.set("p50_ms", median(lat(headline)), "ms")
	res.set("throughput_per_s", capacity, "1/s")
	res.set("peak_rss_mib", rss, "MiB")
	res.note("capacity_rps", capacity, "1/s")
	res.note("request_p50_ms", median(lat("")), "ms")
	res.note("p99_ms", quantile(lat(""), 0.99), "ms")
	res.note("check_p99_ms", quantile(lat("check"), 0.99), "ms")
	res.note("sim_p50_ms", median(lat("simulate")), "ms")
	res.note("sim_p90_ms", quantile(lat("simulate"), 0.9), "ms")
	res.note("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.note("open_loop_requests", float64(len(samples)), "count")
	res.note("simulate_requests", float64(len(lat("simulate"))), "count")
	return res, nil
}

// sweepRun measures the sweep workload: one closed-loop client
// submitting job after job for the run's seconds.
func sweepRun(ctx context.Context, cfg config, srv *server, setup float64) (*result, error) {
	specs := sweepSpecs(cfg.seed)
	c := newConn(srv.base)
	defer c.close()
	runs, mismatched, first := sweepLoop(ctx, c, specs, secs(float64(cfg.seconds)), nil, cfg.mutate)
	rss, err := srv.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	if first != "" {
		fmt.Fprintln(os.Stderr, "perfbench: wrong response:", first)
	}
	res := newResult()
	var lat []float64
	waves := make([]float64, len(runs))
	for i, r := range runs {
		res.Attempted++
		if !r.ok {
			res.Failed++
			lat = append(lat, math.Inf(1))
			if r.err != "" {
				fmt.Fprintln(os.Stderr, "perfbench: job failed:", r.err)
			}
			continue
		}
		lat = append(lat, float64(r.end.Sub(r.submit))/1e6)
		waves[i] = float64(specs[r.spec].waves())
	}
	elapsed := runs[len(runs)-1].end.Sub(runs[0].submit).Seconds()
	res.Correct = mismatched == 0
	res.set("setup_s", setup, "s")
	res.set("p50_ms", median(lat), "ms")
	res.set("throughput_per_s", sum(waves)/elapsed, "1/s")
	res.set("peak_rss_mib", rss, "MiB")
	res.note("job_p50_s", median(lat)/1e3, "s")
	res.note("job_p90_s", quantile(lat, 0.9)/1e3, "s")
	res.note("waves_per_s", sum(waves)/elapsed, "1/s")
	res.note("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.note("jobs", float64(len(runs)), "count")
	return res, nil
}
