package minserve

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// Admission control: the POST endpoints do real work (analysis,
// routing, simulation), so they are funneled through a bounded
// execution pool. MaxConcurrent requests execute at once; up to
// MaxQueueDepth more may wait, each for at most QueueWait; everything
// beyond that is shed immediately with 429 + Retry-After. An optional
// per-request deadline (RequestTimeout) covers both the queue wait and
// the work itself, so an overloaded box degrades predictably — excess
// load turns into fast, retryable rejections instead of a convoy of
// slow requests that eventually time out client-side.
//
// GET endpoints (healthz, metrics, limits, networks, job reads) bypass
// admission entirely: observability must stay reachable exactly when
// the work plane is saturated.

// admission is the bounded work pool; nil disables admission.
type admission struct {
	slots      chan struct{} // counting semaphore, cap = MaxConcurrent
	maxQueue   int64         // waiters allowed beyond the executing set
	wait       time.Duration // longest a request may queue; <=0: no wait
	retryAfter string        // Retry-After seconds for shed responses
}

func newAdmission(cfg Config) *admission {
	if cfg.MaxConcurrent < 0 {
		return nil
	}
	retry := int64(1)
	if s := int64(cfg.QueueWait / time.Second); s > retry {
		retry = s
	}
	return &admission{
		slots:      make(chan struct{}, cfg.MaxConcurrent),
		maxQueue:   int64(cfg.MaxQueueDepth),
		wait:       cfg.QueueWait,
		retryAfter: strconv.FormatInt(retry, 10),
	}
}

// admit wraps a work handler with the deadline and the bounded queue.
func (s *server) admit(next http.Handler) http.Handler {
	if s.adm == nil && s.cfg.RequestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		a := s.adm
		if a == nil {
			next.ServeHTTP(w, r)
			return
		}
		// Fast path: a free slot admits without touching the queue.
		select {
		case a.slots <- struct{}{}:
		default:
			if !a.enqueue(s, w, r) {
				return
			}
		}
		s.metrics.enterInFlight()
		defer func() {
			s.metrics.leaveInFlight()
			<-a.slots
		}()
		next.ServeHTTP(w, r)
	})
}

// enqueue waits for a slot within the queue bound and the wait budget.
// It reports whether the request was admitted; when it was not, the
// response (429 or nothing, for a dead client) has been written.
func (a *admission) enqueue(s *server, w http.ResponseWriter, r *http.Request) bool {
	if n := s.metrics.queueDepth.Add(1); n > a.maxQueue {
		s.metrics.queueDepth.Add(-1)
		s.shed(w, r)
		return false
	}
	defer s.metrics.queueDepth.Add(-1)
	if a.wait <= 0 {
		s.shed(w, r)
		return false
	}
	timer := time.NewTimer(a.wait)
	defer timer.Stop()
	select {
	case a.slots <- struct{}{}:
		return true
	case <-timer.C:
		s.shed(w, r)
		return false
	case <-r.Context().Done():
		// Deadline: a retryable 503 (written by writeErr). Disconnect:
		// silence; instrument() records the 499.
		writeErr(w, r, r.Context().Err())
		return false
	}
}

// shed refuses one request under load: 429, Retry-After, counted.
func (s *server) shed(w http.ResponseWriter, r *http.Request) {
	s.metrics.shed.Add(1)
	w.Header().Set("Retry-After", s.adm.retryAfter)
	writeErr(w, r, errOverloaded)
}
