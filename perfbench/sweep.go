package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"time"

	"minequiv/min"
)

// jobSpec is the /v1/jobs body the sweep workload submits.
type jobSpec struct {
	Networks      []string  `json:"networks"`
	Stages        int       `json:"stages"`
	Loads         []float64 `json:"loads"`
	TrialsPerCell int       `json:"trialsPerCell"`
	Seed          uint64    `json:"seed"`
}

func (s jobSpec) waves() int { return len(s.Networks) * len(s.Loads) * s.TrialsPerCell }

// sweepSpecs are the sweep workload's three job specs, one each at 8, 9
// and 10 stages: two seeded catalog networks × two loads. Trials per
// cell halve as the terminal count doubles, so every job does about
// the same kernel work and runs whole 64-wave batches; the client
// cycles through them, so each spec's later results can be checked
// against its first.
func sweepSpecs(seed uint64) []jobSpec {
	r := rand.New(rand.NewPCG(seed, 3))
	names := min.CatalogNames()
	var specs []jobSpec
	for st := 8; st <= 10; st++ {
		p := r.Perm(len(names))
		specs = append(specs, jobSpec{
			Networks:      []string{names[p[0]], names[p[1]]},
			Stages:        st,
			Loads:         []float64{0.5, 1},
			TrialsPerCell: 40960 >> (st - 8),
			Seed:          1 + r.Uint64()>>12,
		})
	}
	return specs
}

// jobRun is one job's outcome as the sweep client saw it.
type jobRun struct {
	spec      int
	submit    time.Time // due: the closed loop submits as soon as the previous job is fetched
	submitEnd time.Time
	end       time.Time // result fetched
	polls     int
	lateMs    []float64 // how late each poll went out against its schedule
	ok        bool
	traced    bool
	result    []byte
	err       string
}

const pollEvery = 10 * time.Millisecond

// runJob submits spec, polls its status on an absolute 10 ms schedule
// until it leaves pending/running, and fetches its result.
func runJob(ctx context.Context, c *conn, spec jobSpec, tr *tracer, req, root int64) jobRun {
	run := jobRun{submit: time.Now()}
	body, _ := json.Marshal(spec) // a struct of strings and numbers always marshals
	var id struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	status, data, err := c.call(ctx, http.MethodPost, "/v1/jobs", body)
	run.submitEnd = time.Now()
	tr.add("http.submit", root, req, run.submit, run.submitEnd)
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", status, clip(data))
	}
	if err == nil {
		err = json.Unmarshal(data, &id)
	}
	for tick := run.submitEnd; err == nil; {
		tick = tick.Add(pollEvery)
		sleepUntil(tick)
		t0 := time.Now()
		run.lateMs = append(run.lateMs, float64(t0.Sub(tick))/1e6)
		status, data, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+id.ID, nil)
		tr.add("http.poll", root, req, t0, time.Now())
		run.polls++
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("poll: status %d: %s", status, clip(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &id)
		}
		if id.State != "pending" && id.State != "running" {
			break
		}
	}
	if err == nil && id.State != "done" {
		err = fmt.Errorf("job %s ended %s", id.ID, id.State)
	}
	if err == nil {
		t0 := time.Now()
		status, run.result, err = c.call(ctx, http.MethodGet, "/v1/jobs/"+id.ID+"/result", nil)
		tr.add("http.result", root, req, t0, time.Now())
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("result: status %d: %s", status, clip(run.result))
		}
	}
	run.end = time.Now()
	if err != nil {
		run.err = err.Error()
	} else {
		run.ok = true
	}
	return run
}

// call issues one JSON request and returns the status and body.
func (c *conn) call(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// sweepLoop is the sweep workload's closed loop: one client submits
// the next job as soon as the previous job's result is in, cycling
// through the specs, until dur has passed; the job running at the
// deadline is waited for. Every result must equal the first result of
// the same spec byte for byte. With traced set, every other job is
// traced (the others measure the untraced latency).
func sweepLoop(ctx context.Context, c *conn, specs []jobSpec, dur time.Duration, tr *tracer,
	mutate func([]byte) []byte) (runs []jobRun, mismatched int, first string) {
	refs := make([][]byte, len(specs))
	end := time.Now().Add(dur)
	for k := 0; time.Now().Before(end) && ctx.Err() == nil; k++ {
		var jt *tracer
		if k%2 == 1 {
			jt = tr
		}
		req, root := jt.newRequest(), jt.newID()
		run := runJob(ctx, c, specs[k%len(specs)], jt, req, root)
		run.spec = k % len(specs)
		run.traced = jt != nil
		jt.put(root, 0, req, "job", run.submit, run.end)
		if run.ok && mutate != nil {
			run.result = mutate(run.result)
		}
		if run.ok {
			switch ref := refs[run.spec]; {
			case ref == nil:
				refs[run.spec] = run.result
			case !bytes.Equal(ref, run.result):
				mismatched++
				run.ok = false
				if first == "" {
					first = fmt.Sprintf("job spec %d result differs from its first result: got %q, want %q",
						run.spec, clip(run.result), clip(ref))
				}
			}
		}
		runs = append(runs, run)
	}
	return runs, mismatched, first
}
