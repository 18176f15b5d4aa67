package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"bpi/internal/obs"
)

// Handler returns the daemon's HTTP surface. Every POST, and GET
// /v1/ledger/proof/{key}, passes the gate and answers with the X-Trace-Id
// of its trace (a batch names one per item):
//
//	POST /v1/equiv     equivalence verdict (~, ≈, ~b, ~φ, ~+, ~c, …)
//	POST /v1/equiv/batch  many pairs, NDJSON-streamed per-pair verdicts
//	POST /v1/prove     A ⊢ p = q (Section 5)
//	GET  /trace/{id}   span tree + engine counters of a recent gated request
//	GET  /v1/ledger/stats      persistent verdict-ledger summary
//	GET  /v1/ledger/proof/{key} Merkle inclusion proof of a persisted verdict
//	GET  /healthz      liveness
//	GET  /metrics      Prometheus text exposition
//	GET  /debug/pprof/ the net/http/pprof profiling surface
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/equiv", instrument(s, "/v1/equiv", s.handleEquiv))
	mux.HandleFunc("POST /v1/equiv/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/prove", instrument(s, "/v1/prove", s.handleProve))
	mux.HandleFunc("GET /trace/{id}", instrument(s, "/trace/{id}", s.handleTrace))
	mux.HandleFunc("GET /v1/ledger/stats", instrument(s, "/v1/ledger/stats", s.handleLedgerStats))
	mux.HandleFunc("GET /v1/ledger/proof/{key}", instrument(s, "/v1/ledger/proof/{key}", s.handleLedgerProof))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// The pprof surface: the daemon runs its own mux, so the handlers are
	// mounted explicitly instead of relying on DefaultServeMux. The
	// trailing-slash Index route also serves the named profiles
	// (goroutine, heap, allocs, block, mutex, threadcreate).
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return mux
}

// handlerFunc is a handler returning (status, body); body is JSON-encoded.
// A handler may set response headers on w; it writes nothing else.
type handlerFunc func(w http.ResponseWriter, r *http.Request) (int, any)

// instrument wraps a handler with request accounting and JSON encoding.
func instrument(s *Server, endpoint string, h handlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status, body := h(w, r)
		code := "ok"
		if er, ok := body.(errorResponse); ok {
			code = er.Error.Code
			if er.Error.RetryAfterSec > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(er.Error.RetryAfterSec))
			}
		}
		s.metrics.observe(endpoint, code, time.Since(start))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		enc := json.NewEncoder(w)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(body)
	}
}

// fail builds a typed error response with the HTTP status matching the code.
// A gate shed carries a Retry-After hint, which makes it a 429: the request
// was fine, the daemon refused to queue it.
func fail(eb *ErrorBody) (int, any) {
	status := http.StatusInternalServerError
	switch eb.Code {
	case CodeInvalidRequest, CodeParseError:
		status = http.StatusBadRequest
	case CodeTermTooLarge:
		status = http.StatusRequestEntityTooLarge
	case CodeBudgetExhausted:
		status = http.StatusUnprocessableEntity
	case CodeDeadline:
		status = http.StatusGatewayTimeout
	case CodeNotFound:
		status = http.StatusNotFound
	case CodePending:
		status = http.StatusConflict
	}
	if eb.RetryAfterSec > 0 {
		status = http.StatusTooManyRequests
	}
	return status, errorResponse{Error: *eb}
}

// maxBodyBytes bounds any request body; individual term fields are further
// bounded by ledger.MaxTermBytes.
const maxBodyBytes = 1 << 20

// decode reads and unmarshals a JSON request body.
func decode(r *http.Request, into any) *ErrorBody {
	return decodeLimit(r, into, maxBodyBytes)
}

// decodeLimit is decode with an explicit body bound (batches carry many
// terms and get a larger one).
func decodeLimit(r *http.Request, into any, limit int64) *ErrorBody {
	body, err := io.ReadAll(io.LimitReader(r.Body, limit+1))
	if err != nil {
		return &ErrorBody{Code: CodeInvalidRequest, Message: "reading body: " + err.Error()}
	}
	if int64(len(body)) > limit {
		return &ErrorBody{Code: CodeTermTooLarge, Message: fmt.Sprintf("body exceeds %d bytes", limit)}
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return &ErrorBody{Code: CodeInvalidRequest, Message: "bad JSON: " + err.Error()}
	}
	return nil
}

// sync runs fn for a gated endpoint under the request's one deadline, set
// here on arrival from timeout_ms (or the default): the gate sheds on it,
// the wait for a worker slot gives up at it, and fn runs under it. The
// deadline makes a timer only if the request waits for a slot. Work the
// gate admits reports to a tracer of its own, filed before the response is
// written, whose id the response carries in X-Trace-Id.
func (s *Server) sync(w http.ResponseWriter, r *http.Request, timeoutMs int,
	fn func(ctx context.Context, tr *obs.Tracer) (int, any)) (status int, body any) {
	budget := s.timeout(timeoutMs)
	ctx := newDeadline(r.Context(), time.Now().Add(budget))
	defer ctx.release()
	t, eb := s.gate.admit(budget)
	if eb != nil {
		return fail(eb)
	}
	tr := obs.NewWithLimit(traceLimit)
	if eb := t.serve(ctx, func() { status, body = fn(ctx, tr) }); eb != nil {
		status, body = fail(eb)
	}
	w.Header().Set(TraceHeader, s.fileTrace(r.URL.Path, tr))
	return status, body
}

func (s *Server) handleEquiv(w http.ResponseWriter, r *http.Request) (int, any) {
	var req EquivRequest
	if eb := decode(r, &req); eb != nil {
		return fail(eb)
	}
	return s.sync(w, r, req.TimeoutMs, func(ctx context.Context, tr *obs.Tracer) (int, any) {
		resp, eb := s.runEquiv(ctx, &req, tr)
		if eb != nil {
			return fail(eb)
		}
		return http.StatusOK, *resp
	})
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) (int, any) {
	var req ProveRequest
	if eb := decode(r, &req); eb != nil {
		return fail(eb)
	}
	return s.sync(w, r, req.TimeoutMs, func(ctx context.Context, tr *obs.Tracer) (int, any) {
		resp, eb := s.runProve(ctx, &req, tr)
		if eb != nil {
			return fail(eb)
		}
		return http.StatusOK, *resp
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.gate.draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Each request decides on a store of its own, which mirrors its reuse
	// counters into the daemon tracer: the store series are totals over
	// every request's store, and a store creates one term per intern miss.
	counters := s.obs.Counters()
	hits, misses := float64(s.cache.hits.Load()), float64(s.cache.misses.Load())
	hitRate := 0.0
	if hits+misses > 0 {
		hitRate = hits / (hits + misses)
	}
	gauges := []gauge{
		{"bpid_store_terms", "Canonical terms interned by the request stores since start.", "", float64(counters["store.intern_misses"])},
		{"bpid_store_intern_hits_total", "Intern calls served by an existing term.", "", float64(counters["store.intern_hits"])},
		{"bpid_store_intern_misses_total", "Intern calls that created a term.", "", float64(counters["store.intern_misses"])},
		{"bpid_store_derivation_hits_total", "Memoised derivation lookups served from cache.", "", float64(counters["store.deriv_hits"])},
		{"bpid_store_derivation_misses_total", "Derivation lookups recomputed from the semantics.", "", float64(counters["store.deriv_misses"])},
		{"bpid_verdict_cache_entries", "Entries in the verdict LRU.", "", float64(s.cache.len())},
		{"bpid_verdict_cache_hits_total", "Verdict-cache hits.", "", hits},
		{"bpid_verdict_cache_misses_total", "Verdict-cache misses.", "", misses},
		{"bpid_verdict_cache_hit_rate", "Verdict-cache hit rate since start.", "", hitRate},
	}
	// Per-(relation, mode) cache traffic, so warm-start effectiveness is
	// attributable per workload. Sorted for a stable exposition.
	relHits, relMisses := s.cache.relCounts()
	for _, series := range []struct {
		name, help string
		counts     map[relMode]uint64
	}{
		{"bpid_verdict_cache_rel_hits_total", "Verdict-cache hits by relation and strong/weak mode.", relHits},
		{"bpid_verdict_cache_rel_misses_total", "Verdict-cache misses by relation and strong/weak mode.", relMisses},
	} {
		keys := make([]relMode, 0, len(series.counts))
		for k := range series.counts {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].rel != keys[j].rel {
				return keys[i].rel < keys[j].rel
			}
			return keys[i].mode < keys[j].mode
		})
		for _, k := range keys {
			gauges = append(gauges, gauge{series.name, series.help,
				fmt.Sprintf("{rel=%q,mode=%q}", k.rel, k.mode), float64(series.counts[k])})
		}
	}
	if s.ledger != nil {
		ls := s.ledger.Stats()
		gauges = append(gauges,
			gauge{"bpid_ledger_records_total", "Indexed records in the persistent verdict ledger, not quarantined; each is verified at its first read.", "", float64(ls.Records)},
			gauge{"bpid_ledger_replay_rejected_total", "Ledger records quarantined: by framing or seal checks at open, or by certificate verification at their first read.", "", float64(ls.Rejected)},
			gauge{"bpid_ledger_replayed_total", "Verdict-cache misses answered from a verified ledger record since startup.", "", float64(s.replayed.Load())},
			gauge{"bpid_ledger_batches_total", "Sealed Merkle batches.", "", float64(ls.Batches)},
			gauge{"bpid_ledger_pending_records", "Appended records awaiting their batch seal.", "", float64(ls.Pending)},
			gauge{"bpid_ledger_seals_total", "Batches sealed by this process.", "", float64(ls.Seals)},
			gauge{"bpid_ledger_seal_wait_seconds_total", "Summed first-append-to-seal latency of this process's batches.", "", ls.SealWaitSeconds},
			gauge{"bpid_ledger_dropped_appends_total", "Verdicts not persisted because the write-behind queue was full.", "", float64(s.ledgerDropped.Load())},
		)
	}
	gauges = append(gauges, gauge{"bpid_uptime_seconds", "Seconds since daemon start.", "", time.Since(s.started).Seconds()})
	gauges = s.gate.gauges(gauges)
	// Engine counters from the daemon tracer, where every request's tracer
	// folds its own, one labelled series per counter name (sorted for a
	// stable exposition). The store.* counters are exported once, as the
	// bpid_store_* series above.
	cnames := make([]string, 0, len(counters))
	for name := range counters {
		if !strings.HasPrefix(name, "store.") {
			cnames = append(cnames, name)
		}
	}
	sort.Strings(cnames)
	for _, name := range cnames {
		gauges = append(gauges, gauge{"bpid_engine_events_total",
			"Engine events observed by the daemon tracer, by counter name.",
			fmt.Sprintf("{name=%q}", name), float64(counters[name])})
	}
	gauges = append(gauges, gauge{"bpid_trace_spans_dropped_total",
		"Span events dropped by the request tracers' buffer bound.", "", float64(s.traces.dropped.Load())})
	var b strings.Builder
	s.metrics.render(&b, gauges)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = io.WriteString(w, b.String())
}
