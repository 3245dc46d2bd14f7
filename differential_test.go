package minequiv

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"minequiv/internal/codec"
	"minequiv/internal/engine"
	"minequiv/internal/jobs"
	"minequiv/min"
	"minequiv/minserve"
)

// The differential oracle: one simulation request — (network, stages,
// load, faults, seed, waves) — must give the same answer through every
// surface that serves it. The min facade is the reference; the HTTP
// endpoints (both codecs, single and batched) and the job plane must
// agree with it exactly, so collapsing or rewriting any of those
// surfaces cannot silently move a number.

const (
	diffStages = 6
	diffWaves  = 100
	diffSeed   = 11
)

var (
	diffNetworks   = []string{min.Omega, min.Flip}
	diffLoads      = []float64{0.5, 1}
	diffFaultRates = []float64{0, 0.02}
)

// simulateDirect runs the reference: min.Simulate with the given seed,
// load, wave count and switch-dead rate.
func simulateDirect(t *testing.T, network string, seed uint64, load, rate float64, waves int) min.WaveStats {
	t.Helper()
	nw, err := min.Build(network, diffStages)
	if err != nil {
		t.Fatal(err)
	}
	opts := []min.Option{min.WithSeed(seed), min.WithLoad(load), min.WithWaves(waves)}
	if rate > 0 {
		opts = append(opts, min.WithFaults(min.FaultPlan{SwitchDeadRate: rate}))
	}
	st, err := min.Simulate(context.Background(), nw, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func post(t *testing.T, h http.Handler, path, body string, binary bool) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	if binary {
		req.Header.Set("Accept", minserve.MediaTypeBinary)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK && rec.Code != http.StatusAccepted {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
	}
	return rec
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func newService(t *testing.T) http.Handler {
	t.Helper()
	sv, err := minserve.New(minserve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sv.Close(context.Background()) })
	return sv.Handler()
}

// TestDifferentialSimulate: min.Simulate, /v1/simulate in JSON,
// /v1/simulate in binary (decoded) and a /v1/batch simulate item return
// byte-identical WaveStats.
func TestDifferentialSimulate(t *testing.T) {
	h := newService(t)
	for _, network := range diffNetworks {
		for _, load := range diffLoads {
			for _, rate := range diffFaultRates {
				name := fmt.Sprintf("%s/load=%g/faults=%g", network, load, rate)
				t.Run(name, func(t *testing.T) {
					direct := simulateDirect(t, network, diffSeed, load, rate, diffWaves)
					var want bytes.Buffer
					if err := json.NewEncoder(&want).Encode(codec.SimulateResponse{Model: "wave", Wave: &direct}); err != nil {
						t.Fatal(err)
					}

					body := fmt.Sprintf(`{"network":%q,"stages":%d,"load":%g,"waves":%d,"seed":%d`,
						network, diffStages, load, diffWaves, diffSeed)
					if rate > 0 {
						body += fmt.Sprintf(`,"faults":{"switchDeadRate":%g}`, rate)
					}
					body += "}"

					if got := post(t, h, "/v1/simulate", body, false).Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
						t.Errorf("JSON /v1/simulate differs from min.Simulate:\ngot  %s\nwant %s", got, want.Bytes())
					}

					var bin codec.SimulateResponse
					if err := codec.Decode(post(t, h, "/v1/simulate", body, true).Body.Bytes(), &bin); err != nil {
						t.Fatal(err)
					}
					if bin.Wave == nil {
						t.Fatal("binary /v1/simulate carries no wave stats")
					}
					if got, want := mustJSON(t, *bin.Wave), mustJSON(t, direct); !bytes.Equal(got, want) {
						t.Errorf("binary /v1/simulate differs from min.Simulate:\ngot  %s\nwant %s", got, want)
					}

					var batch struct {
						Responses []struct {
							Status int             `json:"status"`
							Body   json.RawMessage `json:"body"`
						} `json:"responses"`
					}
					rec := post(t, h, "/v1/batch", `{"requests":[{"op":"simulate","request":`+body+`}]}`, false)
					if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
						t.Fatal(err)
					}
					if len(batch.Responses) != 1 || batch.Responses[0].Status != http.StatusOK {
						t.Fatalf("batch simulate item failed: %s", rec.Body)
					}
					if got := batch.Responses[0].Body; !bytes.Equal(got, bytes.TrimSuffix(want.Bytes(), []byte("\n"))) {
						t.Errorf("batch simulate item differs from min.Simulate:\ngot  %s\nwant %s", got, want.Bytes())
					}
				})
			}
		}
	}
}

// TestDifferentialJobCells: every /v1/jobs cell reports the integer
// counts and the throughput statistic min.Simulate gives when run with
// that cell's root seed engine.SeedPair(spec.Seed, cellIdx) and its
// load. Both surfaces finalize the same exact partial sums, so Std and
// CI95 must agree bit for bit, not just to float tolerance.
func TestDifferentialJobCells(t *testing.T) {
	h := newService(t)
	spec := fmt.Sprintf(`{"networks":["%s","%s"],"stages":%d,"loads":[%g,%g],"faultRates":[%g,%g],"trialsPerCell":%d,"seed":%d}`,
		diffNetworks[0], diffNetworks[1], diffStages, diffLoads[0], diffLoads[1],
		diffFaultRates[0], diffFaultRates[1], diffWaves, diffSeed)
	var st jobs.Status
	if err := json.Unmarshal(post(t, h, "/v1/jobs", spec, false).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}

	var res jobs.Result
	for deadline := time.Now().Add(20 * time.Second); ; {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+st.ID+"/result", nil))
		if rec.Code == http.StatusOK {
			if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			break
		}
		if rec.Code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("job result: status %d: %s", rec.Code, rec.Body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	want := len(diffNetworks) * len(diffLoads) * len(diffFaultRates)
	if len(res.Cells) != want {
		t.Fatalf("job has %d cells, want %d", len(res.Cells), want)
	}
	for c, cell := range res.Cells {
		root, _ := engine.SeedPair(diffSeed, uint64(c))
		direct := simulateDirect(t, cell.Network, root, cell.Load, cell.FaultRate, cell.Trials)
		got := [5]int64{cell.Offered, cell.Delivered, cell.Dropped, cell.Misrouted, cell.FaultDropped}
		exp := [5]int64{int64(direct.Offered), int64(direct.Delivered), int64(direct.Dropped),
			int64(direct.Misrouted), int64(direct.FaultDropped)}
		if got != exp {
			t.Errorf("cell %d (%s load=%g faults=%g): job counts %v, min.Simulate %v (offered, delivered, dropped, misrouted, faultDropped)",
				c, cell.Network, cell.Load, cell.FaultRate, got, exp)
		}
		if min.Stat(cell.Throughput) != direct.Throughput {
			t.Errorf("cell %d (%s load=%g faults=%g): job throughput %+v, min.Simulate %+v",
				c, cell.Network, cell.Load, cell.FaultRate, cell.Throughput, direct.Throughput)
		}
	}
}
