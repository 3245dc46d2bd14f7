package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"startNs"` // since the tracer started
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newRequest() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// put records a span under an id reserved with newID.
func (t *tracer) put(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	t.mu.Unlock()
}

// add records a span and returns its id.
func (t *tracer) add(name string, parent, req int64, start, end time.Time) int64 {
	id := t.newID()
	t.put(id, parent, req, name, start, end)
	return id
}

// request records a client request as a root span from its due time to
// its completion, with the HTTP exchange as its child: the root's self
// time is how long the request waited in the generator.
func (t *tracer) request(s *sample) {
	if t == nil || s.sent.IsZero() {
		return
	}
	s.traceReq = t.newRequest()
	root := t.add("request."+s.op.body.endpoint, 0, s.traceReq, s.due, s.end)
	t.add("http."+s.op.body.endpoint, root, s.traceReq, s.sent, s.end)
}

// selfTimes returns every span's self time in ns: its duration minus
// the part its child spans cover. Children of one parent never
// overlap — they run one after another — so the covered part is the
// sum of their durations. A replayed child (a min call re-run after the
// in-process handler returned, to time what the handler did inside)
// lies outside its parent's interval and is subtracted the same way.
func (t *tracer) selfTimes() map[int64]int64 {
	self := make(map[int64]int64, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] += s.End - s.Start
	}
	for _, s := range t.spans {
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	for id, v := range self {
		self[id] = max(v, 0)
	}
	return self
}

// write stores the spans as JSON lines in path and a per-name table of
// counts, total and self time in tablePath.
func (t *tracer) write(path, tablePath string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	tf, err := os.Create(tablePath)
	if err != nil {
		return err
	}
	t.table(tf)
	return tf.Close()
}

func (t *tracer) table(w io.Writer) {
	type row struct {
		n           int
		total, self float64
		selfs       []float64
	}
	rows := map[string]*row{}
	self := t.selfTimes()
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += float64(s.End-s.Start) / 1e6
		us := float64(self[s.ID]) / 1e3
		r.self += us / 1e3
		r.selfs = append(r.selfs, us)
	}
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s %14s\n", "span", "count", "total_ms", "self_ms", "self_p50_us")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %14.3f\n", n, r.n, r.total, r.self, median(r.selfs))
	}
}
