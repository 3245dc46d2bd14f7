package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"minequiv/minserve"
)

// conn is one client connection: an HTTP/1.1 transport that keeps a
// single keep-alive connection to the server, so a generator with k
// conns never has more than k requests in flight.
type conn struct {
	client *http.Client
	base   string
}

func newConn(base string) *conn {
	return &conn{base: base, client: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// sample is one request's outcome.
type sample struct {
	op            op
	due, sent     time.Time // due is the scheduled send time (sent, in a closed loop)
	end           time.Time
	ok            bool // 200 with a body (correctness is judged later)
	reqBytes      int
	respBytes     int
	traceReq      int64  // request id of a traced request, 0 untraced
	hash          uint64 // response fingerprint, see verifier.observe
	mismatch      bool   // 200, but not the reference response
	statusOrError string
}

// latencyMs is the time from due to completion, +Inf for a request
// that failed, was shed or was dropped.
func (s *sample) latencyMs() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return float64(s.end.Sub(s.due)) / 1e6
}

// send issues o and records the outcome into s. mutate, when set,
// rewrites the response body before it is checked (the self-test uses
// it to inject a wrong response).
func (c *conn) send(ctx context.Context, o op, s *sample, v *verifier, mutate func([]byte) []byte) {
	s.op = o
	payload := o.body.json
	if o.bin {
		var err error
		if payload, err = o.body.binary(); err != nil {
			s.statusOrError = err.Error()
			s.end = time.Now()
			return
		}
	}
	s.reqBytes = len(payload)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/"+o.body.endpoint, bytes.NewReader(payload))
	if err != nil {
		s.statusOrError = err.Error()
		s.end = time.Now()
		return
	}
	if o.bin {
		req.Header.Set("Content-Type", minserve.MediaTypeBinary)
		req.Header.Set("Accept", minserve.MediaTypeBinary)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	s.sent = time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		s.statusOrError = err.Error()
		s.end = time.Now()
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.end = time.Now()
	switch {
	case err != nil:
		s.statusOrError = err.Error()
	case resp.StatusCode != http.StatusOK:
		s.statusOrError = fmt.Sprintf("status %d: %s", resp.StatusCode, clip(body))
	default:
		s.ok = true
		s.respBytes = len(body)
		if mutate != nil {
			body = mutate(body)
		}
		s.hash = v.observe(o, body)
	}
}

// openLoop sends ops[i] at start + i/rate on an absolute schedule
// through conns connections, for as long as the schedule lasts. The
// dispatcher never sleeps past a due time it has already missed: after
// a stall it hands out every overdue request at once, so the offered
// rate holds and the stall shows up as latency, which is timed from
// each request's due time. A request that cannot be handed to a
// connection within grace of the schedule's end is dropped.
func openLoop(ctx context.Context, conns []*conn, ops []op, rate float64, v *verifier,
	tr *tracer, mutate func([]byte) []byte) []sample {
	const grace = time.Second
	samples := make([]sample, len(ops))
	start := time.Now().Add(20 * time.Millisecond)
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / rate * 1e9)) }
	deadline := due(len(ops)).Add(grace)
	work := make(chan int)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				s := &samples[i]
				c.send(ctx, ops[i], s, v, mutate)
				tr.request(s)
			}
		}()
	}
	i := 0
dispatch:
	for ; i < len(ops); i++ {
		d := due(i)
		samples[i].due = d
		sleepUntil(d)
		select {
		case work <- i:
		case <-time.After(time.Until(deadline)):
			break dispatch
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	for ; i < len(ops); i++ {
		samples[i].due = due(i)
		samples[i].op = ops[i]
		samples[i].statusOrError = "dropped"
	}
	return samples
}

// sleepUntil blocks until t. It sleeps in nanosleep rather than on a
// runtime timer: an idle Go program waits for timers in epoll, whose
// timeout has millisecond resolution, which would clump sub-millisecond
// arrivals into bursts.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// closedLoop runs one client per connection, each sending its next
// request as soon as the previous one completes, for dur. It returns
// every sample and the successful responses per second completed
// after warm.
func closedLoop(ctx context.Context, conns []*conn, seq *sequence, dur, warm time.Duration,
	v *verifier, mutate func([]byte) []byte) ([]sample, float64) {
	start := time.Now()
	from, end := start.Add(warm), start.Add(dur)
	var next, ok atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(end) && ctx.Err() == nil {
				o := seq.at(int(next.Add(1) - 1))
				var s sample
				s.due = time.Now()
				c.send(ctx, o, &s, v, mutate)
				if s.ok && !s.end.Before(from) && !s.end.After(end) {
					ok.Add(1)
				}
				mine = append(mine, s)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, float64(ok.Load()) / (dur - warm).Seconds()
}
