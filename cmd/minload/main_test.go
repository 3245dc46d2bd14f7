package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestHistQuantiles: the geometric histogram brackets known samples.
func TestHistQuantiles(t *testing.T) {
	h := &hist{}
	// 100 samples at ~100us, 10 at ~10ms: p50 near 100us, p99+ near 10ms.
	for i := 0; i < 100; i++ {
		h.add(100 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.add(10 * time.Millisecond)
	}
	if p50 := h.quantile(0.50); p50 < 50 || p50 > 200 {
		t.Errorf("p50 %.0fus out of bracket", p50)
	}
	if p99 := h.quantile(0.999); p99 < 5000 || p99 > 20000 {
		t.Errorf("p99.9 %.0fus out of bracket", p99)
	}
	var m hist
	m.merge(h)
	if m.count != 110 || m.maxUs < 9000 {
		t.Errorf("merge lost samples: count %d max %.0f", m.count, m.maxUs)
	}
}

// TestBuildMix: parsing, normalization, validation.
func TestBuildMix(t *testing.T) {
	ops, err := buildMix("check=3,route=1", 6, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 || ops[0].weight != 0.75 || ops[1].weight != 0.25 {
		t.Errorf("weights not normalized: %+v", ops)
	}
	for _, o := range ops {
		if len(o.bodies) != 4 {
			t.Errorf("op %s: %d variants, want 4", o.name, len(o.bodies))
		}
	}
	rng := rand.New(rand.NewPCG(1, 0))
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[pick(ops, rng).name]++
	}
	if counts["check"] < 2700 || counts["check"] > 3300 {
		t.Errorf("weighted pick skewed: %v", counts)
	}
	for _, bad := range []string{"", "wat=1", "check", "check=-1"} {
		if _, err := buildMix(bad, 6, 32, 4); err == nil {
			t.Errorf("mix %q accepted", bad)
		}
	}
}

// TestRunEndToEnd exercises the whole tool in-process: a short closed
// run writing a report, the gate's passing verdict on that report, and
// a -baseline run against a fixture envelope. The verdicts are
// deterministic: the report is gated against itself (speed ratio 1),
// and the fixture's bounds admit any run.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	args := []string{
		"-inprocess", "-duration", "300ms", "-warmup", "100ms", "-conns", "2",
		"-mix", "check=0.7,batch=0.3", "-stages", "4", "-seed", "1",
	}
	if err := run(context.Background(), append(args, "-lint-metrics", "-o", repPath), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	data, err := os.ReadFile(repPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"codecs"`, `"servedRPS"`, `"refCheckUs"`, `"p99Us"`, `"mode": "closed"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report missing %s:\n%s", want, data)
		}
	}
	if !strings.Contains(out.String(), string(data)) {
		t.Errorf("printed report differs from the -o file:\n%s\nvs\n%s", out.String(), data)
	}
	if !strings.Contains(out.String(), "lint-clean") {
		t.Errorf("metrics lint did not run:\n%s", out.String())
	}

	var env codecBaselines
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	rep, ok := env.Codecs["json"]
	if !ok || len(env.Codecs) != 1 {
		t.Fatalf("report envelope wants exactly the json row: %s", data)
	}
	if rep.Requests == 0 {
		t.Fatalf("run served no requests: %s", data)
	}
	out.Reset()
	if err := gate(&out, rep, repPath, 20); err != nil {
		t.Fatalf("report gated against itself: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "speed ratio 1.00") || !strings.Contains(out.String(), "within baseline envelope") {
		t.Errorf("gate verdict missing:\n%s", out.String())
	}

	fixture := filepath.Join(dir, "fixture.json")
	if err := os.WriteFile(fixture, []byte(`{"codecs":{"json":{"refCheckUs":1,"servedRPS":0,"latency":{"p99Us":1e12}}}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), append(args, "-baseline", fixture), &out); err != nil {
		t.Fatalf("gated run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "within baseline envelope") {
		t.Errorf("gate verdict missing:\n%s", out.String())
	}
}

// TestRejectsEmptyRuns: a run that cannot issue a request is an error,
// not a zero report.
func TestRejectsEmptyRuns(t *testing.T) {
	for _, bad := range [][]string{
		{"-conns", "0"},
		{"-conns", "-1"},
		{"-duration", "0s"},
		{"-duration", "-1s"},
	} {
		var out bytes.Buffer
		args := append([]string{"-inprocess", "-warmup", "0s", "-stages", "4"}, bad...)
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("%v accepted:\n%s", bad, out.String())
		}
	}
}

// TestRunOpenLoop: the open-loop pacer serves near the offered rate
// when far below capacity.
func TestRunOpenLoop(t *testing.T) {
	var out bytes.Buffer
	args := []string{
		"-inprocess", "-duration", "400ms", "-warmup", "50ms", "-conns", "4",
		"-rps", "200", "-mix", "check=1", "-stages", "4", "-seed", "1",
	}
	if err := run(context.Background(), args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, `"mode": "open"`) || !strings.Contains(s, `"offeredRPS": 200`) {
		t.Errorf("open-loop report malformed:\n%s", s)
	}
}

// TestGateRejectsRegression: a fabricated faster baseline trips the
// served-RPS floor, and a baseline without the run's codec row (a
// flat report included) is refused.
func TestGateRejectsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Same refCheckUs (speed ratio 1), absurdly high baseline RPS.
	base := write("base.json", `{"codecs":{"json":{"refCheckUs":1,"servedRPS":1e12,"latency":{"p99Us":1}}}}`)
	cur := report{Codec: "json", RefCheckUs: 1, ServedRPS: 1000, Latency: latencyReport{P99Us: 100}}
	var out bytes.Buffer
	if err := gate(&out, cur, base, 20); err == nil || !strings.Contains(err.Error(), "served RPS regression") {
		t.Fatalf("gate accepted a 10^9x regression (err %v):\n%s", err, out.String())
	}
	for name, body := range map[string]string{
		"bin-only.json": `{"codecs":{"bin":{"refCheckUs":1,"servedRPS":1,"latency":{"p99Us":1e12}}}}`,
		"flat.json":     `{"refCheckUs":1,"servedRPS":1,"latency":{"p99Us":1e12}}`,
	} {
		if err := gate(&out, cur, write(name, body), 20); err == nil || !strings.Contains(err.Error(), `no "json" codec row`) {
			t.Errorf("%s: err %v, want missing codec row", name, err)
		}
	}
}
