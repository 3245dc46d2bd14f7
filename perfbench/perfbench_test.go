package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// serverBin is cmd/minserve, built once for the whole test binary.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "minserve")
	if out, err := exec.Command("go", "build", "-o", serverBin, "minequiv/cmd/minserve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build minserve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func shortRun(t *testing.T, workload string, seed uint64, seconds int, trace bool, mutate func([]byte) []byte) (*result, string) {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: seconds, trace: trace, server: serverBin,
		scratch: t.TempDir(), conns: 2, mutate: mutate}
	res, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	var out bytes.Buffer
	if err := res.print(&out, workload); err != nil {
		t.Fatal(err)
	}
	return res, out.String()
}

// checkPrinted asserts that the result carries exactly the listed
// metrics with their units, printed by name and unit, and that the
// last output line is the JSON result.
func checkPrinted(t *testing.T, workload string, res *result, out string, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok || got.Unit != m.Unit {
			t.Errorf("%s: metric %s = %+v (present %t), want unit %s", workload, m.Name, got, ok, m.Unit)
		}
		if !strings.Contains(out, " "+m.Name+" ") {
			t.Errorf("%s: %s not printed", workload, m.Name)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	keys := make([]string, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if !slices.Equal(keys, []string{"attempted", "correct", "failed", "metrics"}) {
		t.Errorf("%s: result keys %v", workload, keys)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%t attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
}

func TestEveryWorkloadPrintsItsMetrics(t *testing.T) {
	spec := loadSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		res, out := shortRun(t, w, 1, 2, false, nil)
		checkPrinted(t, w, res, out, spec.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, m.Value)
			}
		}
		res, out = shortRun(t, w, 1, 2, true, nil)
		checkPrinted(t, w, res, out, spec.PerLayer)
	}
}

// corruptNth returns a mutate hook that flips one byte of the nth
// response body it sees.
func corruptNth(n int64) func([]byte) []byte {
	var seen atomic.Int64
	return func(b []byte) []byte {
		if seen.Add(1) != n || len(b) == 0 {
			return b
		}
		b = bytes.Clone(b)
		b[len(b)/2] ^= 0x01
		return b
	}
}

func TestWrongResponseIsCounted(t *testing.T) {
	// The sweep checks a job's result against the first result of the
	// same spec; its three specs first repeat at the fourth job.
	for _, c := range []struct {
		w          string
		seconds, n int
	}{{"serve-mix", 2, 2}, {"sweep", 5, 4}} {
		w := c.w
		res, out := shortRun(t, w, 1, c.seconds, false, corruptNth(int64(c.n)))
		if res.Correct || res.Failed != 1 {
			t.Errorf("%s: one corrupted response gave correct=%t failed=%d, want false and 1", w, res.Correct, res.Failed)
		}
		if !strings.Contains(out, " fail_ratio ") || strings.Contains(out, " fail_ratio  0.000000") {
			t.Errorf("%s: fail_ratio not raised:\n%s", w, out)
		}
	}
}

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	for _, w := range []string{"serve-mix", "serve-large"} {
		_, a, err := newSequences(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := newSequences(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i, o := range a.prefix(100) {
			if bytes.Equal(o.body.json, b.at(i).body.json) {
				same++
			}
		}
		if same == 100 {
			t.Errorf("%s: seeds 1 and 2 generate the same requests", w)
		}
		_, again, _ := newSequences(w, 1)
		for i, o := range a.prefix(100) {
			if p := again.at(i); !bytes.Equal(o.body.json, p.body.json) || o.bin != p.bin {
				t.Fatalf("%s: seed 1 is not reproducible at request %d", w, i)
			}
		}
	}
	if fmt.Sprint(sweepSpecs(1)) == fmt.Sprint(sweepSpecs(2)) {
		t.Error("sweep: seeds 1 and 2 generate the same job specs")
	}
	r1, _ := shortRun(t, "serve-mix", 1, 2, false, nil)
	r2, _ := shortRun(t, "serve-mix", 2, 2, false, nil)
	if fmt.Sprint(r1.order) != fmt.Sprint(r2.order) {
		t.Errorf("metric names differ between seeds: %v vs %v", r1.order, r2.order)
	}
}

// TestOpenLoopTimesFromDueTime stalls the server once and checks that
// the generator keeps its schedule: every request is still sent, the
// stall shows as latency on the requests due during it, and the ones
// after it are caught up rather than shifted.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stall = 150 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			time.Sleep(stall)
		}
		w.Write([]byte("{}\n"))
	}))
	defer ts.Close()
	body := &reqBody{endpoint: "check", json: []byte(`{"network":"omega","stages":3}`)}
	ops := make([]op, 200)
	for i := range ops {
		ops[i] = op{body: body}
	}
	conns := []*conn{newConn(ts.URL)}
	defer closeConns(conns)
	const rate = 1000.0
	start := time.Now()
	samples := openLoop(context.Background(), conns, ops, rate, newVerifier(), nil, nil)
	elapsed := time.Since(start)
	late := 0
	for i := range samples {
		s := &samples[i]
		if !s.ok {
			t.Fatalf("request %d failed: %s", i, s.statusOrError)
		}
		if s.latencyMs() >= float64(stall/2)/1e6 {
			late++
		}
	}
	// The stall holds the only connection, so the ~100 requests due
	// during it all wait; their latency counts from their due times.
	if late < 50 {
		t.Errorf("only %d requests show the %v stall in their latency", late, stall)
	}
	if limit := time.Duration(float64(len(ops))/rate*float64(time.Second)) + 2*stall; elapsed > limit {
		t.Errorf("schedule of %d requests took %v, want under %v: the generator fell behind", len(ops), elapsed, limit)
	}
}
