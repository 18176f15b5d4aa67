// Package service implements bpid, the resident equivalence-checking
// daemon: an HTTP/JSON front end over the pair engine. Each equivalence
// request, and each batch item, is decided on an equiv.Store of its own,
// dropped when the decision ends, so the daemon's heap holds no term past
// the request that interned it.
//
// Architecture:
//
//   - every piece of work that needs a worker (a worker endpoint or a
//     batch item) passes one gate (gate.go): Config.Workers slots, a
//     bounded queue of Config.AdmissionQueue places beyond them, and typed
//     429 sheds (queue_full, deadline_budget, draining) for the rest;
//     a request's engine budgets and its term store belong to the Checker
//     it is decided on, so both are request-scoped;
//   - a batch admits its items upfront, then runs the admitted ones in
//     index order on min(admitted, Workers) goroutines of its own, each
//     taking the next item when it finishes one (batch.go);
//   - each request has one deadline, set on arrival: admission sheds on
//     it, the wait for a worker gives up at it, and it is threaded as
//     context.Context cancellation into the pair engine's BFS loop and the
//     prover's world enumeration and derivation search; it surfaces as
//     typed deadline_exceeded errors, distinct from budget_exhausted;
//   - every piece of work that passes the gate reports to a tracer of its
//     own; the last 256 are served on GET /trace/{id} (trace.go);
//   - conclusive equivalence verdicts land in a bounded LRU keyed on the
//     canonical pair + relation + budgets (sound: verdicts are pure
//     functions of those — see lru.go), so repeated queries short-circuit
//     before touching the engine; with a ledger, a miss is answered from a
//     verified persisted record before the engine runs (ledger.go);
//   - Shutdown drains: the gate sheds new work with draining, while work
//     it admitted before, queued requests included, runs to completion.
//
// The wire types live in api.go and are shared with the bpi.Client.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bpi/internal/axioms"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/obs"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Config tunes a Server. The zero value is usable: every field has a
// default.
type Config struct {
	// Env is the definitions environment shared by all requests (nil = none).
	Env syntax.Env
	// Workers bounds the work executing at once (default GOMAXPROCS).
	Workers int
	// CacheSize bounds the verdict LRU (entries; default 4096).
	CacheSize int
	// MaxPairs / MaxClosure are the default engine budgets for requests
	// that do not set their own (0 = the checker defaults).
	MaxPairs   int
	MaxClosure int
	// DefaultTimeout applies to requests without timeout_ms (default 10s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts (default 60s).
	MaxTimeout time.Duration
	// Ledger, when set, is an opened persistent verdict ledger: a
	// verdict-cache miss is answered from a record of the pair once the
	// record passes its verified read, and fresh certified verdicts are
	// appended write-behind (see ledger.go). The caller keeps ownership and
	// closes it after Shutdown.
	Ledger *ledger.Ledger
	// BatchMax bounds the pairs accepted by one POST /v1/equiv/batch
	// (default 256).
	BatchMax int
	// AdmissionQueue bounds the gate's queue: work beyond Workers
	// executing + AdmissionQueue waiting is shed with a typed 429
	// (default 64).
	AdmissionQueue int
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) defaultTimeout() time.Duration {
	if c.DefaultTimeout <= 0 {
		return 10 * time.Second
	}
	return c.DefaultTimeout
}

func (c Config) maxTimeout() time.Duration {
	if c.MaxTimeout <= 0 {
		return 60 * time.Second
	}
	return c.MaxTimeout
}

func (c Config) batchMax() int {
	if c.BatchMax <= 0 {
		return 256
	}
	return c.BatchMax
}

func (c Config) admissionQueue() int {
	if c.AdmissionQueue <= 0 {
		return 64
	}
	return c.AdmissionQueue
}

// Server is the daemon core: the gate in front of the workers, the verdict
// cache, the request traces and the metrics registry. Create with New,
// mount Handler on an http.Server, stop with Shutdown.
type Server struct {
	cfg     Config
	sys     *semantics.System
	cache   *verdictCache
	metrics *metrics

	// obs is the daemon-lifetime tracer, counters only: every request's
	// store mirrors its reuse counters here (the bpid_store_* series sum
	// them), and every request's own tracer folds its engine counters in
	// when the work ends (exported as bpid_engine_events_total on
	// /metrics, the store counters left out).
	obs *obs.Tracer
	// traces keeps the span trees of the last gated requests.
	traces traceRing

	// Ledger state (nil/zero without Config.Ledger): the write-behind
	// append queue, its single writer goroutine, the count of cache misses
	// answered from the ledger, and appends dropped on queue pressure. See
	// ledger.go.
	ledger        *ledger.Ledger
	ledgerCh      chan pendingAppend
	ledgerWG      sync.WaitGroup
	ledgerDropped atomic.Uint64
	replayed      atomic.Int64

	// gate admits all work that needs a worker and drains it at Shutdown.
	gate *gate

	started time.Time
}

// New returns a ready Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		sys:     semantics.NewSystem(cfg.Env),
		cache:   newVerdictCache(cfg.CacheSize),
		metrics: newMetrics(),
		obs:     obs.New(),
		gate:    newGate(cfg.workers(), cfg.admissionQueue()),
		started: time.Now(),
	}
	s.attachLedger()
	return s
}

// Shutdown drains the server: the gate sheds all new work with draining,
// then Shutdown blocks until all work it admitted before, queued requests
// included, has finished, or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.gate.close()
	done := make(chan struct{})
	go func() {
		s.gate.drain.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Only after the drain: no in-flight request can enqueue appends
		// anymore, so the write-behind queue can be closed and flushed.
		s.stopLedger()
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown drain: %w", ctx.Err())
	}
}

// timeout resolves a request's timeout_ms against the server defaults.
func (s *Server) timeout(ms int) time.Duration {
	d := s.cfg.defaultTimeout()
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if max := s.cfg.maxTimeout(); d > max {
		d = max
	}
	return d
}

// parseTerm validates and parses one term field. The source is at most
// ledger.MaxTermBytes long, the cap the ledger keys certificate terms
// against, and every call in the term must name a definition of
// Config.Env with its arity.
func (s *Server) parseTerm(field, src string) (syntax.Proc, *ErrorBody) {
	if src == "" {
		return nil, &ErrorBody{Code: CodeInvalidRequest, Message: "missing term field " + field}
	}
	if len(src) > ledger.MaxTermBytes {
		return nil, &ErrorBody{Code: CodeTermTooLarge,
			Message: fmt.Sprintf("%s is %d bytes (limit %d)", field, len(src), ledger.MaxTermBytes)}
	}
	p, err := parser.Parse(src)
	if err != nil {
		return nil, &ErrorBody{Code: CodeParseError, Message: field + ": " + err.Error()}
	}
	if err := s.cfg.Env.CheckCalls(field, p); err != nil {
		return nil, &ErrorBody{Code: CodeInvalidRequest, Message: err.Error()}
	}
	return p, nil
}

// classify maps an execution error to its typed wire form: deadlines are
// distinguished from budget exhaustion and from a request the engine cannot
// take (a non-finite term for the prover), which are distinguished from
// everything else.
func classify(err error) *ErrorBody {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return &ErrorBody{Code: CodeDeadline, Message: err.Error()}
	case errors.Is(err, axioms.ErrInfinite):
		return &ErrorBody{Code: CodeInvalidRequest, Message: err.Error()}
	default:
		var eb equiv.ErrBudget
		var ub semantics.ErrUnfoldBudget
		var ab axioms.ErrBudget
		if errors.As(err, &eb) || errors.As(err, &ub) || errors.As(err, &ab) {
			return &ErrorBody{Code: CodeBudgetExhausted, Message: err.Error()}
		}
		return &ErrorBody{Code: CodeInternal, Message: err.Error()}
	}
}

// checker returns a Checker on a fresh store for one request, carrying the
// request's budgets and reporting to tr; the store mirrors its reuse
// counters into the daemon tracer.
func (s *Server) checker(req *EquivRequest, tr *obs.Tracer) *equiv.Checker {
	c := equiv.NewChecker(s.sys)
	c.Store().SetObs(s.obs)
	c.MaxPairs = s.cfg.MaxPairs
	if req.MaxPairs > 0 {
		c.MaxPairs = req.MaxPairs
	}
	c.MaxClosure = s.cfg.MaxClosure
	if req.MaxClosure > 0 {
		c.MaxClosure = req.MaxClosure
	}
	c.Obs = tr
	// Every verdict is certified: the daemon's verdict cache stores the
	// certificate alongside the verdict, so cached queries replay it, and
	// the ledger persists it. Requests that do not ask for the certificate
	// get it stripped from the response only.
	c.Certify = true
	return c
}

// runEquiv executes one equivalence query (already on a worker slot, under
// the request's deadline in ctx). It answers from the verdict cache, else
// from a verified ledger record, else from the engine, whose verdict feeds
// the cache and the ledger. Engine spans and counters go to the request's
// tracer tr.
func (s *Server) runEquiv(ctx context.Context, req *EquivRequest, tr *obs.Tracer) (*EquivResponse, *ErrorBody) {
	p, eb := s.parseTerm("p", req.P)
	if eb != nil {
		return nil, eb
	}
	q, eb := s.parseTerm("q", req.Q)
	if eb != nil {
		return nil, eb
	}
	// The relation is checked before it keys the cache, whose per-relation
	// counters must not grow a label per bogus name.
	if !slices.Contains(cert.Relations, req.Rel) {
		return nil, &ErrorBody{Code: CodeInvalidRequest, Message: fmt.Sprintf("unknown relation %q (want %s)",
			req.Rel, strings.Join(cert.Relations, "|"))}
	}
	pairKey := ledger.QueryKey(req.Rel, req.Weak, p, q)
	key := budgetKey(pairKey, req.MaxPairs, req.MaxClosure, req.MaxSubs)
	if resp, ok := s.cache.get(key, req.Rel, req.Weak); ok {
		return reply(req, resp, true), nil
	}
	if resp, ok := s.fromLedger(pairKey, req); ok {
		s.cache.put(key, resp)
		return reply(req, resp, true), nil
	}
	start := time.Now()
	r, err := s.checker(req, tr).Decide(ctx, equiv.Query{Rel: req.Rel, Weak: req.Weak, P: p, Q: q, MaxSubs: req.MaxSubs})
	if err != nil {
		return nil, classify(err)
	}
	resp := EquivResponse{Related: r.Related, Pairs: r.Pairs, Reason: r.Reason, Certificate: r.Cert,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond)}
	if s.ledger != nil && resp.Certificate != nil {
		// The content address is derivable right here (the pair key is
		// already computed); the record itself is built and appended by the
		// write-behind goroutine, which records only a certified verdict.
		resp.LedgerKey = ledger.KeyHash(pairKey)
	}
	s.cache.put(key, resp)
	s.recordVerdict(pairKey, req, &resp)
	return reply(req, resp, false), nil
}

// reply shapes a verdict for the wire: a cached one reports no engine time,
// and the certificate stays only if the request asked for it.
func reply(req *EquivRequest, resp EquivResponse, cached bool) *EquivResponse {
	if cached {
		resp.Cached = true
		resp.ElapsedMs = 0
	}
	if !req.Cert {
		resp.Certificate = nil
	}
	return &resp
}

// runProve executes one prover query (already on a worker slot).
func (s *Server) runProve(ctx context.Context, req *ProveRequest, tr *obs.Tracer) (*ProveResponse, *ErrorBody) {
	p, eb := s.parseTerm("p", req.P)
	if eb != nil {
		return nil, eb
	}
	q, eb := s.parseTerm("q", req.Q)
	if eb != nil {
		return nil, eb
	}
	pr := axioms.NewProver(s.sys)
	pr.MaxNames = req.MaxNames
	pr.MaxSteps = req.MaxSteps
	pr.Tracing = req.Trace
	pr.Obs = tr
	start := time.Now()
	ok, err := pr.DecideCtx(ctx, p, q)
	if err != nil {
		return nil, classify(err)
	}
	return &ProveResponse{
		Proved:    ok,
		Trace:     append([]string(nil), pr.TraceLines()...),
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}
