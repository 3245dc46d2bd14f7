package main

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"minequiv/min"
)

func runSim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(context.Background(), args, &buf)
	return buf.String(), err
}

func TestWaveModel(t *testing.T) {
	out, err := runSim(t, "-net", "omega", "-n", "4", "-model", "wave", "-waves", "20")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "omega n=4") || !strings.Contains(out, "throughput") {
		t.Errorf("wave output wrong:\n%s", out)
	}
}

func TestWavePatterns(t *testing.T) {
	for _, p := range []string{"uniform", "permutation", "bitreversal", "hotspot"} {
		if _, err := runSim(t, "-n", "3", "-model", "wave", "-waves", "5", "-pattern", p); err != nil {
			t.Errorf("pattern %s: %v", p, err)
		}
	}
	if _, err := runSim(t, "-model", "wave", "-pattern", "nope", "-n", "3"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestBufferedModel(t *testing.T) {
	out, err := runSim(t, "-net", "flip", "-n", "3", "-model", "buffered",
		"-cycles", "200", "-warmup", "20", "-load", "0.5")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"buffered", "mean latency", "injected"} {
		if !strings.Contains(out, want) {
			t.Errorf("buffered output missing %q:\n%s", want, out)
		}
	}
}

func TestCounterFlag(t *testing.T) {
	out, err := runSim(t, "-counter", "-n", "4", "-model", "wave", "-waves", "10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tail-cycle") {
		t.Errorf("counter output wrong:\n%s", out)
	}
}

func TestPatternListing(t *testing.T) {
	out, err := runSim(t, "-patterns")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"uniform", "tornado", "transpose", "neighbor", "bursty"} {
		if !strings.Contains(out, want) {
			t.Errorf("pattern listing missing %q:\n%s", want, out)
		}
	}
}

func TestNewPatterns(t *testing.T) {
	for _, p := range []string{"tornado", "transpose", "neighbor", "bursty", "bernoulli"} {
		if _, err := runSim(t, "-n", "3", "-model", "wave", "-waves", "5", "-pattern", p); err != nil {
			t.Errorf("pattern %s: %v", p, err)
		}
	}
}

func TestSweepMode(t *testing.T) {
	out, err := runSim(t, "-sweep", "-n", "3", "-waves", "10", "-loads", "0.5,1.0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "sweep: wave model") || !strings.Contains(out, "load=0.50") {
		t.Errorf("sweep output wrong:\n%s", out)
	}
	for _, net := range []string{"omega", "baseline", "flip"} {
		if !strings.Contains(out, net) {
			t.Errorf("sweep missing network %s:\n%s", net, out)
		}
	}
	out, err = runSim(t, "-sweep", "-model", "buffered", "-n", "3", "-cycles", "100",
		"-warmup", "10", "-nets", "omega,flip", "-loads", "0.4")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "buffered model") || strings.Contains(out, "baseline") {
		t.Errorf("restricted buffered sweep wrong:\n%s", out)
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-loads", "abc"); err == nil {
		t.Error("bad load list accepted")
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-model", "nope"); err == nil {
		t.Error("bad sweep model accepted")
	}
	// Flags the sweep would silently drop must be rejected, and list
	// values must tolerate whitespace after commas.
	if _, err := runSim(t, "-sweep", "-counter", "-n", "3"); err == nil {
		t.Error("-sweep -counter accepted")
	}
	if _, err := runSim(t, "-sweep", "-pattern", "tornado", "-n", "3"); err == nil {
		t.Error("-sweep -pattern accepted")
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-waves", "5",
		"-nets", "omega, flip", "-loads", "0.5, 1.0"); err != nil {
		t.Errorf("whitespace in list flags rejected: %v", err)
	}
	// Single-run flags the wave sweep never reads are rejected by name.
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-kernel", "bit"}, "-kernel"},
		{[]string{"-load", "0.3", "-reps", "4"}, "-load"},
		{[]string{"-reps", "4"}, "-reps"},
	} {
		_, err := runSim(t, append([]string{"-sweep", "-n", "3"}, tc.args...)...)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" is not used by a wave sweep") {
			t.Errorf("-sweep %v: err %v, want %s rejected", tc.args, err, tc.flag)
		}
	}
}

func TestBufferedLanesAndPattern(t *testing.T) {
	out, err := runSim(t, "-net", "omega", "-n", "3", "-model", "buffered",
		"-cycles", "300", "-warmup", "30", "-load", "0.8", "-lanes", "2",
		"-pattern", "transpose")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"transpose traffic", "lanes 2", "p50", "p95", "p99",
		"dropped", "max lane occupancy", "mean stage occupancy"} {
		if !strings.Contains(out, want) {
			t.Errorf("buffered output missing %q:\n%s", want, out)
		}
	}
	// Load-aware patterns run too (no double thinning blow-up).
	if _, err := runSim(t, "-n", "3", "-model", "buffered", "-cycles", "100",
		"-warmup", "10", "-pattern", "bursty"); err != nil {
		t.Errorf("bursty buffered run: %v", err)
	}
	if _, err := runSim(t, "-n", "3", "-model", "buffered", "-pattern", "nope"); err == nil {
		t.Error("unknown buffered pattern accepted")
	}
}

func TestBufferedSweepGrid(t *testing.T) {
	out, err := runSim(t, "-sweep", "-model", "buffered", "-n", "3", "-cycles", "100",
		"-warmup", "10", "-nets", "omega", "-loads", "0.4,0.9",
		"-queues", "1,4", "-lanegrid", "1,2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 networks x 2 loads x 2 queues x 2 lanes") {
		t.Errorf("grid header wrong:\n%s", out)
	}
	// One long-format row per (queue, lanes, load) grid point, each
	// carrying loss and latency percentiles, not only throughput.
	if rows := strings.Count(out, "omega"); rows != 8 {
		t.Errorf("want 8 omega rows, got %d:\n%s", rows, out)
	}
	for _, col := range []string{"throughput", "dropped", "rejected", "p50/p95/p99"} {
		if !strings.Contains(out, col) {
			t.Errorf("buffered sweep missing %q column:\n%s", col, out)
		}
	}
	if _, err := runSim(t, "-sweep", "-model", "buffered", "-n", "3", "-queues", "abc"); err == nil {
		t.Error("bad queue list accepted")
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-queues", "2"); err == nil {
		t.Error("-queues accepted for the wave sweep")
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-lanegrid", "2"); err == nil {
		t.Error("-lanegrid accepted for the wave sweep")
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	one, err := runSim(t, "-n", "4", "-waves", "50", "-workers", "1", "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	four, err := runSim(t, "-n", "4", "-waves", "50", "-workers", "4", "-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if one != four {
		t.Fatalf("output depends on worker count:\n%s\nvs\n%s", one, four)
	}
}

func TestSimErrors(t *testing.T) {
	if _, err := runSim(t, "-net", "nope", "-n", "3"); err == nil {
		t.Error("unknown network accepted")
	}
	if _, err := runSim(t, "-model", "nope", "-n", "3"); err == nil || !strings.Contains(err.Error(), `unknown model "nope"`) {
		t.Errorf("single run with -model nope: err %v, want unknown model", err)
	}
	if _, err := runSim(t, "-counter", "-n", "2"); err == nil {
		t.Error("n=2 counterexample accepted")
	}
	if _, err := runSim(t, "-model", "buffered", "-n", "3", "-queue", "0"); err == nil {
		t.Error("zero queue accepted")
	}
	// A flag the run's model never reads is rejected by name.
	if _, err := runSim(t, "-n", "3", "-queue", "9", "-cycles", "7"); err == nil ||
		!strings.Contains(err.Error(), "-cycles is not used by a wave run") {
		t.Errorf("wave run with -queue/-cycles: err %v, want -cycles rejected", err)
	}
	if _, err := runSim(t, "-n", "3", "-model", "buffered", "-waves", "9"); err == nil ||
		!strings.Contains(err.Error(), "-waves is not used by a buffered run") {
		t.Errorf("buffered run with -waves: err %v, want -waves rejected", err)
	}
}

func TestFaultsFlag(t *testing.T) {
	// Random rates degrade a wave run and report the fault kills.
	out, err := runSim(t, "-net", "omega", "-n", "4", "-model", "wave", "-waves", "30",
		"-faults", "dead=0.05,link=0.02")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "faults: dead=0.05,link=0.02") || !strings.Contains(out, "killed by faults") {
		t.Errorf("fault summary missing:\n%s", out)
	}
	// Pinned faults work on the buffered model too.
	out, err = runSim(t, "-net", "omega", "-n", "3", "-model", "buffered",
		"-cycles", "100", "-warmup", "10", "-faults", "dead@1:0, stuck0@0:1, link@2:3")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "killed by faults") {
		t.Errorf("buffered fault summary missing:\n%s", out)
	}
	// Degraded runs are reproducible from (seed, plan).
	a, err := runSim(t, "-n", "4", "-waves", "40", "-seed", "5", "-workers", "1", "-faults", "dead=0.1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSim(t, "-n", "4", "-waves", "40", "-seed", "5", "-workers", "3", "-faults", "dead=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("degraded output depends on worker count:\n%s\nvs\n%s", a, b)
	}
	// Bad specs are rejected.
	for _, bad := range []string{"dead", "dead=x", "nope=0.1", "dead@3", "dead@a:b", "stuck2@0:0", "dead=2"} {
		if _, err := runSim(t, "-n", "3", "-faults", bad); err == nil {
			t.Errorf("fault spec %q accepted", bad)
		}
	}
	// -faultrates belongs to -sweep; -faults belongs to single runs.
	if _, err := runSim(t, "-n", "3", "-faultrates", "0.1"); err == nil {
		t.Error("-faultrates accepted without -sweep")
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-faults", "dead=0.1"); err == nil {
		t.Error("-faults accepted with -sweep")
	}
}

func TestFaultRateSweepAxis(t *testing.T) {
	out, err := runSim(t, "-sweep", "-n", "3", "-waves", "10", "-nets", "omega",
		"-loads", "0.5,1.0", "-faultrates", "0,0.1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 fault rates") || !strings.Contains(out, "dead") {
		t.Errorf("fault axis header missing:\n%s", out)
	}
	// One row per (network, rate).
	if rows := strings.Count(out, "omega"); rows != 2 {
		t.Errorf("want 2 omega rows, got %d:\n%s", rows, out)
	}
	// Buffered degradation sweep runs too.
	out, err = runSim(t, "-sweep", "-model", "buffered", "-n", "3", "-cycles", "80",
		"-warmup", "10", "-nets", "omega", "-loads", "0.6", "-faultrates", "0,0.05")
	if err != nil {
		t.Fatal(err)
	}
	if rows := strings.Count(out, "omega"); rows != 2 {
		t.Errorf("want 2 buffered omega rows, got %d:\n%s", rows, out)
	}
	if _, err := runSim(t, "-sweep", "-n", "3", "-faultrates", "abc"); err == nil {
		t.Error("bad fault-rate list accepted")
	}
}

func TestKernelFlag(t *testing.T) {
	args := []string{"-net", "omega", "-n", "5", "-model", "wave", "-waves", "100", "-seed", "3"}
	base, err := runSim(t, append(args, "-kernel", "scalar")...)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"auto", "bit"} {
		out, err := runSim(t, append(args, "-kernel", k)...)
		if err != nil {
			t.Fatalf("-kernel %s: %v", k, err)
		}
		if out != base {
			t.Errorf("-kernel %s changed the output:\n%s\nvs\n%s", k, out, base)
		}
	}
	if _, err := runSim(t, append(args, "-kernel", "simd")...); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := runSim(t, "-n", "3", "-model", "buffered", "-cycles", "100", "-kernel", "bit"); err == nil {
		t.Error("-kernel accepted for the buffered model")
	}
}

// TestCountsMatchFacade is minsim's leg of the differential oracle: the
// counts line a single wave run prints must be the integer counts
// min.Simulate returns for the same (network, stages, load, faults,
// seed, waves).
func TestCountsMatchFacade(t *testing.T) {
	for _, tc := range []struct {
		network string
		load    float64
		dead    float64
	}{
		{min.Omega, 0.5, 0},
		{min.Omega, 1, 0.02},
		{min.Flip, 0.5, 0.02},
		{min.Flip, 1, 0},
	} {
		args := []string{"-net", tc.network, "-n", "6", "-waves", "100", "-seed", "11",
			"-load", strconv.FormatFloat(tc.load, 'g', -1, 64)}
		opts := []min.Option{min.WithSeed(11), min.WithLoad(tc.load), min.WithWaves(100)}
		if tc.dead > 0 {
			args = append(args, "-faults", "dead="+strconv.FormatFloat(tc.dead, 'g', -1, 64))
			opts = append(opts, min.WithFaults(min.FaultPlan{SwitchDeadRate: tc.dead}))
		}
		out, err := runSim(t, args...)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := min.Build(tc.network, 6)
		if err != nil {
			t.Fatal(err)
		}
		st, err := min.Simulate(context.Background(), nw, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("  offered %d, delivered %d, dropped %d, misrouted %d\n",
			st.Offered, st.Delivered, st.Dropped, st.Misrouted)
		if !strings.Contains(out, want) {
			t.Errorf("%v: counts line differs from min.Simulate:\ngot\n%swant line\n%s", args, out, want)
		}
		if tc.dead > 0 {
			if want := fmt.Sprintf("; %d packets killed by faults\n", st.FaultDropped); !strings.Contains(out, want) {
				t.Errorf("%v: fault count differs from min.Simulate (want %d):\n%s", args, st.FaultDropped, out)
			}
		}
	}
}
