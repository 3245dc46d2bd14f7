package minserve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"minequiv/internal/engine"
	"minequiv/internal/jobs"
)

// mustServer builds a white-box server and kills its job plane at test
// end so no worker goroutines outlive the test.
func mustServer(t testing.TB, cfg Config) *server {
	t.Helper()
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.jobs.Kill)
	return s
}

// smallSweep finishes in well under a second: one cell, four shards.
const smallSweep = `{"networks":["omega"],"stages":3,"trialsPerCell":32,"shardTrials":8,"seed":5}`

// slowSweep holds a worker long enough to observe live/not-ready
// states deterministically.
const slowSweep = `{"networks":["omega"],"stages":8,"trialsPerCell":100000,"shardTrials":25000}`

// submitJob posts a spec and returns the accepted job's ID.
func submitJob(t *testing.T, h http.Handler, spec string) string {
	t.Helper()
	rec := do(t, h, "POST", "/v1/jobs", spec)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
	}
	var st jobs.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("submit body: %v: %s", err, rec.Body)
	}
	if st.ID == "" || rec.Header().Get("Location") != "/v1/jobs/"+st.ID {
		t.Fatalf("submit Location %q for id %q", rec.Header().Get("Location"), st.ID)
	}
	return st.ID
}

// awaitJob polls status until the job leaves pending/running.
func awaitJob(t *testing.T, h http.Handler, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(t, h, "GET", "/v1/jobs/"+id, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("status poll %d: %s", rec.Code, rec.Body)
		}
		var st jobs.Status
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != jobs.StatePending && st.State != jobs.StateRunning {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return jobs.Status{}
}

func TestJobLifecycle(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()
	id := submitJob(t, h, smallSweep)

	if rec := do(t, h, "GET", "/v1/jobs", ""); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), id) {
		t.Fatalf("job list (%d) does not mention %s: %s", rec.Code, id, rec.Body)
	}

	st := awaitJob(t, h, id)
	if st.State != jobs.StateDone || st.ShardsDone != 4 || st.ShardsTotal != 4 {
		t.Fatalf("terminal status %+v", st)
	}

	rec := do(t, h, "GET", "/v1/jobs/"+id+"/result", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("result status %d: %s", rec.Code, rec.Body)
	}
	var res jobs.Result
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatalf("result body: %v", err)
	}
	if len(res.Cells) != 1 || res.Cells[0].Trials != 32 || res.Degraded {
		t.Fatalf("result content: %+v", res)
	}
	// Re-reads serve the manifest bytes verbatim.
	again := do(t, h, "GET", "/v1/jobs/"+id+"/result", "")
	if rec.Body.String() != again.Body.String() {
		t.Fatal("result bytes changed between reads")
	}
}

func TestJobCancelThenNotReady(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()
	id := submitJob(t, h, slowSweep)
	rec := do(t, h, "DELETE", "/v1/jobs/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status %d: %s", rec.Code, rec.Body)
	}
	var st jobs.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateCanceled {
		t.Fatalf("state after cancel %q", st.State)
	}
	res := do(t, h, "GET", "/v1/jobs/"+id+"/result", "")
	if res.Code != http.StatusConflict {
		t.Fatalf("canceled result status %d want 409: %s", res.Code, res.Body)
	}
	if we := decodeErrBody(t, res); we.Error.Code != CodeJobNotReady {
		t.Errorf("code %q want %q", we.Error.Code, CodeJobNotReady)
	}
}

// TestJobErrorCodes pins the job plane's wire codes to their triggers.
func TestJobErrorCodes(t *testing.T) {
	s := mustServer(t, Config{MaxTrials: 1000, MaxJobCells: 4})
	h := s.handler()
	cases := []struct {
		name, method, path, body string
		status                   int
		code                     string
	}{
		{"status of unknown job", "GET", "/v1/jobs/nope", "", 404, CodeJobNotFound},
		{"result of unknown job", "GET", "/v1/jobs/nope/result", "", 404, CodeJobNotFound},
		{"events of unknown job", "GET", "/v1/jobs/nope/events", "", 404, CodeJobNotFound},
		{"cancel of unknown job", "DELETE", "/v1/jobs/nope", "", 404, CodeJobNotFound},
		{"unknown network", "POST", "/v1/jobs",
			`{"networks":["bogus"],"stages":3,"trialsPerCell":8}`, 400, CodeBadRequest},
		{"stages beyond cap", "POST", "/v1/jobs",
			`{"networks":["omega"],"stages":11,"trialsPerCell":8}`, 400, CodeLimitExceeded},
		{"stages below minimum", "POST", "/v1/jobs",
			`{"networks":["omega"],"stages":1,"trialsPerCell":8}`, 400, CodeBadRequest},
		{"trials beyond cap", "POST", "/v1/jobs",
			`{"networks":["omega"],"stages":3,"trialsPerCell":5000}`, 400, CodeLimitExceeded},
		{"too many cells", "POST", "/v1/jobs",
			`{"networks":["omega","baseline"],"stages":3,"loads":[0.2,0.5,1],"trialsPerCell":8}`,
			400, CodeLimitExceeded},
		{"bad since cursor", "GET", "/v1/jobs/nope/events?since=x", "", 400, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := do(t, h, tc.method, tc.path, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if we := decodeErrBody(t, rec); we.Error.Code != tc.code {
				t.Errorf("code %q want %q", we.Error.Code, tc.code)
			}
		})
	}
}

// TestJobQuarantinedCode drives a job whose every shard fails into the
// failed state and asserts the result surfaces job_quarantined.
func TestJobQuarantinedCode(t *testing.T) {
	s := mustServer(t, Config{})
	s.jobs.Kill()
	jm, err := jobs.Open(jobs.Config{
		Workers:     2,
		MaxRetries:  1,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		SweepEvery:  2 * time.Millisecond,
		Runner: func(ctx context.Context, cell jobs.Cell, lo, hi int) (engine.WavePartial, error) {
			return engine.WavePartial{}, errors.New("injected fault")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(jm.Kill)
	s.jobs = jm
	h := s.handler()

	id := submitJob(t, h, smallSweep)
	st := awaitJob(t, h, id)
	if st.State != jobs.StateFailed || st.ShardsQuarantined != 4 {
		t.Fatalf("terminal status %+v", st)
	}
	rec := do(t, h, "GET", "/v1/jobs/"+id+"/result", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("result status %d want 500: %s", rec.Code, rec.Body)
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeJobQuarantined {
		t.Errorf("code %q want %q", we.Error.Code, CodeJobQuarantined)
	}
}

// TestJobCorruptCheckpointCode: a job directory whose spec.json is
// garbage resumes as a failed job answering checkpoint_corrupt, and
// does not prevent the server from starting.
func TestJobCorruptCheckpointCode(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "deadbeef", "spec.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustServer(t, Config{JobsDir: dir})
	h := s.handler()
	rec := do(t, h, "GET", "/v1/jobs/deadbeef", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var st jobs.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateFailed {
		t.Fatalf("corrupt job state %q want failed", st.State)
	}
	res := do(t, h, "GET", "/v1/jobs/deadbeef/result", "")
	if res.Code != http.StatusInternalServerError {
		t.Fatalf("result status %d want 500: %s", res.Code, res.Body)
	}
	if we := decodeErrBody(t, res); we.Error.Code != CodeCheckpointCorrupt {
		t.Errorf("code %q want %q", we.Error.Code, CodeCheckpointCorrupt)
	}
}

// TestJobMaxJobsShed: submissions beyond MaxJobs are shed with 429
// overloaded, like any other excess load.
func TestJobMaxJobsShed(t *testing.T) {
	s := mustServer(t, Config{MaxJobs: 1})
	h := s.handler()
	id := submitJob(t, h, slowSweep)
	rec := do(t, h, "POST", "/v1/jobs", smallSweep)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("excess submit status %d want 429: %s", rec.Code, rec.Body)
	}
	if we := decodeErrBody(t, rec); we.Error.Code != CodeOverloaded {
		t.Errorf("code %q want %q", we.Error.Code, CodeOverloaded)
	}
	do(t, h, "DELETE", "/v1/jobs/"+id, "")
}

// TestJobPollingBypassesAdmission is the regression the job plane's
// route table must never lose: with the synchronous plane fully
// saturated (every slot held, no queue), POST work — including job
// submission — sheds 429, while every job read keeps answering 200.
func TestJobPollingBypassesAdmission(t *testing.T) {
	s := mustServer(t, Config{MaxConcurrent: 1, MaxQueueDepth: -1})
	h := s.handler()
	id := submitJob(t, h, smallSweep)
	awaitJob(t, h, id)

	// Occupy the only execution slot directly (white box): admission is
	// now saturated with no queue, so any admitted POST sheds.
	s.adm.slots <- struct{}{}
	defer func() { <-s.adm.slots }()

	if rec := do(t, h, "POST", "/v1/check", `{"network":"omega","stages":3}`); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("work POST under saturation: %d want 429", rec.Code)
	}
	if rec := do(t, h, "POST", "/v1/jobs", smallSweep); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("job submit under saturation: %d want 429", rec.Code)
	}
	reads := []string{
		"/v1/jobs",
		"/v1/jobs/" + id,
		"/v1/jobs/" + id + "/result",
		"/v1/jobs/" + id + "/events",
	}
	for _, path := range reads {
		if rec := do(t, h, "GET", path, ""); rec.Code != http.StatusOK {
			t.Errorf("GET %s under saturation: %d want 200: %s", path, rec.Code, rec.Body)
		}
	}
}

// TestJobEventsLongPoll follows a job to completion through the
// long-poll protocol and checks the cursor discipline: strictly
// increasing seqs, no replays, a terminal state event at the end.
func TestJobEventsLongPoll(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()
	id := submitJob(t, h, smallSweep)

	var since int64
	var last jobs.Event
	sawDone := 0
	deadline := time.Now().Add(20 * time.Second)
	for last.State != jobs.StateDone {
		if time.Now().After(deadline) {
			t.Fatal("long-poll never delivered the terminal event")
		}
		rec := do(t, h, "GET", "/v1/jobs/"+id+"/events?since="+
			strconv.FormatInt(since, 10)+"&waitMs=500", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("events status %d: %s", rec.Code, rec.Body)
		}
		var page eventsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		for _, ev := range page.Events {
			if ev.Seq <= since {
				t.Fatalf("replayed seq %d after cursor %d", ev.Seq, since)
			}
			since = ev.Seq
			last = ev
			if ev.Type == "shard-done" {
				sawDone++
			}
		}
		if page.Next < since {
			t.Fatalf("next cursor %d behind delivered seq %d", page.Next, since)
		}
		since = page.Next
	}
	if sawDone != 4 {
		t.Errorf("saw %d shard-done events, want 4", sawDone)
	}
}

// TestJobEventsSSE reads the event-stream form end to end: id:/data:
// frames, increasing seqs, and stream termination once the job's final
// state event is delivered.
func TestJobEventsSSE(t *testing.T) {
	s := mustServer(t, Config{})
	srv := httptest.NewServer(s.handler())
	defer srv.Close()
	h := s.handler()
	id := submitJob(t, h, smallSweep)

	req, err := http.NewRequest("GET", srv.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	var lastSeq int64
	terminal := ""
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "state" && ev.State != jobs.StateRunning {
			terminal = ev.State
		}
	}
	// The server closes the stream after the terminal event; the scan
	// ending is the success condition.
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if terminal != jobs.StateDone {
		t.Fatalf("stream ended with terminal state %q", terminal)
	}
}

// TestJobEventsDisconnect499: a client that abandons an events request
// before anything was delivered is accounted as a 499 disconnect, for
// both the SSE and long-poll forms — the wait paths write nothing
// until there is an event to send.
func TestJobEventsDisconnect499(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()

	abandon := func(id, accept string) {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest("GET", "/v1/jobs/"+id+"/events?since=100000&waitMs=30000", nil).WithContext(ctx)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, req)
		}()
		time.Sleep(20 * time.Millisecond) // let the handler park in its wait
		cancel()
		<-done
		if rec.Body.Len() != 0 {
			t.Fatalf("abandoned events request wrote %d bytes", rec.Body.Len())
		}
	}
	// Long-poll parks on a finished job (no further events will ever
	// satisfy the cursor); SSE needs a live one, because a terminal
	// job's stream ends immediately instead of waiting.
	finished := submitJob(t, h, smallSweep)
	awaitJob(t, h, finished)
	abandon(finished, "") // long-poll
	live := submitJob(t, h, slowSweep)
	abandon(live, "text/event-stream") // SSE
	do(t, h, "DELETE", "/v1/jobs/"+live, "")

	text := do(t, h, "GET", "/metrics", "").Body.String()
	if !strings.Contains(text, `minserve_requests_total{endpoint="/v1/jobs/{id}/events",code="499"} 2`) {
		t.Errorf("499s not recorded for the events endpoint:\n%s", text)
	}
	if !strings.Contains(text, "minserve_client_disconnects_total 2") {
		t.Errorf("disconnect counter not bumped twice:\n%s", text)
	}
}

// TestJobMetricsFamilies: the job families are present, linted, and
// move when jobs run.
func TestJobMetricsFamilies(t *testing.T) {
	s := mustServer(t, Config{})
	h := s.handler()
	id := submitJob(t, h, smallSweep)
	awaitJob(t, h, id)
	rec := do(t, h, "GET", "/metrics", "")
	if err := LintExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, rec.Body)
	}
	text := rec.Body.String()
	for _, want := range []string{
		"minserve_jobs_in_flight 0",
		"minserve_jobs_completed_total 1",
		"minserve_jobs_failed_total 0",
		"minserve_job_shards_done_total 4",
		"minserve_job_shards_stolen_total 0",
		"minserve_job_shards_retried_total 0",
		"minserve_job_shards_quarantined_total 0",
		"minserve_job_checkpoint_bytes_total 0", // in-memory plane: nothing persisted
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}
}

// TestJobRestartByteIdentity is the serving-layer half of the
// crash-resume contract: a job interrupted by a hard kill finishes
// after restart with result bytes identical to an uninterrupted run of
// the same spec on a fresh server.
func TestJobRestartByteIdentity(t *testing.T) {
	spec := `{"networks":["omega","baseline"],"stages":3,"faultRates":[0,0.1],"trialsPerCell":48,"shardTrials":4,"seed":7}`

	// The reference: one uninterrupted run, in memory.
	ref := mustServer(t, Config{})
	refH := ref.handler()
	refID := submitJob(t, refH, spec)
	if st := awaitJob(t, refH, refID); st.State != jobs.StateDone {
		t.Fatalf("reference run ended %q", st.State)
	}
	refBytes := do(t, refH, "GET", "/v1/jobs/"+refID+"/result", "").Body.String()

	// The victim: killed as soon as any shard has checkpointed.
	dir := t.TempDir()
	s1, err := newServer(Config{JobsDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h1 := s1.handler()
	id := submitJob(t, h1, spec)
	deadline := time.Now().Add(20 * time.Second)
	for s1.jobs.Stats().ShardsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard ever checkpointed")
		}
		time.Sleep(time.Millisecond)
	}
	s1.jobs.Kill()

	// The survivor resumes the directory and completes the job.
	s2 := mustServer(t, Config{JobsDir: dir})
	h2 := s2.handler()
	if st := awaitJob(t, h2, id); st.State != jobs.StateDone {
		t.Fatalf("resumed job ended %q", st.State)
	}
	got := do(t, h2, "GET", "/v1/jobs/"+id+"/result", "").Body.String()
	if got != refBytes {
		t.Fatalf("resumed result diverges from uninterrupted run:\n%s\nvs\n%s", got, refBytes)
	}

	// And a third open serves the same bytes straight from the manifest.
	s3 := mustServer(t, Config{JobsDir: dir})
	h3 := s3.handler()
	if again := do(t, h3, "GET", "/v1/jobs/"+id+"/result", "").Body.String(); again != got {
		t.Fatal("manifest re-read diverges")
	}
}
