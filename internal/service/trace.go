package service

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"bpi/internal/obs"
)

// traceLimit bounds the span events one request's tracer keeps; later
// spans still time correctly, and are counted as dropped.
const traceLimit = 1024

// traceRingSize bounds the request traces the daemon keeps for
// GET /trace/{id}. The oldest is evicted first, and its id then answers
// not_found.
const traceRingSize = 256

// traceRing holds the span trees of the most recent gated requests. Trace
// n (ids count from 1) lives in slot n % traceRingSize until trace
// n + traceRingSize overwrites it. The ring holds tracers only: no results
// and no certificates.
type traceRing struct {
	mu    sync.Mutex
	last  uint64
	slots [traceRingSize]requestTrace
	// dropped counts the span events every filed tracer dropped.
	dropped atomic.Uint64
}

type requestTrace struct {
	n        uint64
	endpoint string
	tr       *obs.Tracer
}

// fileTrace ends the tracing of one gated request to endpoint (its path):
// its engine counters fold into the daemon tracer, so /metrics counts
// every request, and the tracer takes the next place in the ring. It
// returns the trace id.
func (s *Server) fileTrace(endpoint string, tr *obs.Tracer) string {
	for name, v := range tr.Counters() {
		s.obs.Count(name, v)
	}
	r := &s.traces
	r.dropped.Add(tr.Dropped())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last++
	r.slots[r.last%traceRingSize] = requestTrace{n: r.last, endpoint: endpoint, tr: tr}
	return strconv.FormatUint(r.last, 10)
}

// handleTrace serves the span tree and engine counters one gated request
// recorded: explore waves, fixpoint timing, prover worlds.
func (s *Server) handleTrace(_ http.ResponseWriter, r *http.Request) (int, any) {
	id := r.PathValue("id")
	n, err := strconv.ParseUint(id, 10, 64)
	s.traces.mu.Lock()
	rt := s.traces.slots[n%traceRingSize]
	s.traces.mu.Unlock()
	if err != nil || n == 0 || rt.n != n {
		return fail(&ErrorBody{Code: CodeNotFound, Message: "no trace " + id + " (unknown, or evicted by newer requests)"})
	}
	return http.StatusOK, TraceResponse{
		ID:           strconv.FormatUint(n, 10),
		Endpoint:     rt.endpoint,
		Counters:     rt.tr.Counters(),
		DroppedSpans: rt.tr.Dropped(),
		Spans:        rt.tr.Tree(),
	}
}
