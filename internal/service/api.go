package service

import (
	"bpi/internal/cert"
	"bpi/internal/ledger"
	"bpi/internal/obs"
)

// Wire types of the bpid HTTP/JSON API. The same structs are used by the
// daemon handlers and by the bpi.Client, so the two cannot drift.

// ErrorBody is the typed error payload carried by every non-2xx response.
type ErrorBody struct {
	// Code is a stable machine-readable cause: invalid_request, parse_error,
	// term_too_large, budget_exhausted, deadline_exceeded, queue_full,
	// deadline_budget, draining, not_found, pending or internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
	// RetryAfterSec, when non-zero, is the gate's backoff hint in whole
	// seconds. It is mirrored into the Retry-After response header and
	// marks the error as a load-shed (HTTP 429): the request was
	// well-formed, the daemon just refused to queue it right now.
	RetryAfterSec int `json:"retry_after_sec,omitempty"`
}

// Error makes *ErrorBody usable as a Go error (the client returns it as-is).
func (e *ErrorBody) Error() string { return "bpid: " + e.Code + ": " + e.Message }

// Error codes.
const (
	CodeInvalidRequest  = "invalid_request"
	CodeParseError      = "parse_error"
	CodeTermTooLarge    = "term_too_large"
	CodeBudgetExhausted = "budget_exhausted"
	CodeDeadline        = "deadline_exceeded"
	CodeQueueFull       = "queue_full"
	CodeNotFound        = "not_found"
	CodeInternal        = "internal"
	// CodePending marks a resource that will exist but does not yet: an
	// inclusion proof of a not-yet-sealed ledger record. Served as 409 —
	// retry after the batch seals.
	CodePending = "pending"
	// CodeDeadlineBudget is a gate shed: the predicted queue wait
	// already exceeds the request's own deadline budget, so executing it
	// would only burn a worker to produce deadline_exceeded.
	CodeDeadlineBudget = "deadline_budget"
	// CodeDraining is the gate's shed during shutdown, for every kind of
	// work: a 429 with Retry-After, so a client may retry against another
	// node.
	CodeDraining = "draining"
)

// TraceHeader names the response header carrying the id of the request's
// trace on every gated endpoint; GET /trace/{id} serves it.
const TraceHeader = "X-Trace-Id"

// errorResponse is the JSON envelope of an error.
type errorResponse struct {
	Error ErrorBody `json:"error"`
}

// EquivRequest asks whether two terms are related by one of the paper's
// equivalences: ~ / ≈ (labelled), ~b / ≈b (barbed), ~φ / ≈φ (step),
// ~+ / ≈+ (onestep) or ~c / ≈c (congruence); Weak selects the ≈ variant.
type EquivRequest struct {
	P    string `json:"p"`
	Q    string `json:"q"`
	Rel  string `json:"rel"`
	Weak bool   `json:"weak,omitempty"`
	// MaxPairs / MaxClosure override the engine budgets (0 = server default).
	MaxPairs   int `json:"max_pairs,omitempty"`
	MaxClosure int `json:"max_closure,omitempty"`
	// MaxSubs bounds the substitutions tried by a congruence query
	// (0 = unbounded).
	MaxSubs int `json:"max_subs,omitempty"`
	// TimeoutMs bounds the wall-clock time of the query from its arrival,
	// the wait for a worker included (0 = server default; clamped to the
	// server maximum).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Cert asks for the verdict's replayable certificate (internal/cert)
	// in the response. The daemon records a certificate for every verdict
	// regardless (the verdict cache and the ledger keep it); this flag
	// only controls whether it is inlined in the response body.
	Cert bool `json:"cert,omitempty"`
}

// EquivResponse reports an equivalence verdict.
type EquivResponse struct {
	Related bool   `json:"related"`
	Pairs   int    `json:"pairs"`
	Reason  string `json:"reason,omitempty"`
	// Cached reports that the verdict came from the daemon's verdict cache.
	Cached    bool    `json:"cached"`
	ElapsedMs float64 `json:"elapsed_ms"`
	// Certificate is the verdict's replayable proof object, present when
	// the request set Cert (cached verdicts return the cached certificate).
	Certificate *cert.Certificate `json:"certificate,omitempty"`
	// LedgerKey is the verdict's content address in the persistent ledger
	// (the hex SHA-256 of the canonical pair key), present when the daemon
	// runs with -ledger and the verdict carries a certificate, which is
	// what the ledger records: a related ~c truncated by max_subs has none.
	// Feed it to GET /v1/ledger/proof/{key} or `bpiledger proof` once the
	// record's batch seals.
	LedgerKey string `json:"ledger_key,omitempty"`
}

// BatchRequest is the body of POST /v1/equiv/batch: many equivalence
// queries admitted and executed as one request. Pair-level fields
// (budgets, timeout_ms, cert) mean exactly what they mean on /v1/equiv.
type BatchRequest struct {
	Pairs []EquivRequest `json:"pairs"`
}

// BatchItem is one NDJSON line of a batch response stream: the verdict (or
// typed error) of the pair at Index in the request. Items stream in
// completion order, not index order — Index is the join key. TraceID names
// the pair's trace on GET /trace/{id}; a pair shed at admission has none.
type BatchItem struct {
	Index   int            `json:"index"`
	Equiv   *EquivResponse `json:"equiv,omitempty"`
	Error   *ErrorBody     `json:"error,omitempty"`
	TraceID string         `json:"trace_id,omitempty"`
}

// BatchTrailer is the final NDJSON line of a batch stream, marked by
// done=true: the batch's own accounting. Its presence is the well-formed
// end-of-stream marker; a stream without it was truncated.
type BatchTrailer struct {
	Done      bool    `json:"done"`
	Total     int     `json:"total"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Shed      int     `json:"shed"`
	ElapsedMs float64 `json:"elapsed_ms"`
}

// LedgerStatsResponse is the body of GET /v1/ledger/stats. Enabled is false
// (and everything else zero) when the daemon runs without -ledger.
type LedgerStatsResponse struct {
	Enabled bool `json:"enabled"`
	// Replayed counts verdict-cache misses answered since startup from a
	// persisted record that passed every trust layer (its certificate is
	// verified at its first read); Stats.Rejected counts the quarantined
	// records.
	Replayed int `json:"replayed"`
	// DroppedAppends counts verdicts NOT persisted because the async append
	// queue was full — the hot path never blocks on the ledger.
	DroppedAppends uint64       `json:"dropped_appends"`
	Stats          ledger.Stats `json:"stats"`
}

// ProveRequest asks whether A ⊢ p = q (Section 5) for finite terms.
type ProveRequest struct {
	P     string `json:"p"`
	Q     string `json:"q"`
	Trace bool   `json:"trace,omitempty"`
	// MaxNames / MaxSteps override the prover budgets (0 = prover default).
	MaxNames  int `json:"max_names,omitempty"`
	MaxSteps  int `json:"max_steps,omitempty"`
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// ProveResponse reports a provability verdict with an optional derivation
// outline.
type ProveResponse struct {
	Proved    bool     `json:"proved"`
	Trace     []string `json:"trace,omitempty"`
	ElapsedMs float64  `json:"elapsed_ms"`
}

// TraceResponse is the body of GET /trace/{id}: the span tree and engine
// counters recorded by one gated request's own tracer, with the endpoint
// that served it. A verdict-cache hit records no engine spans;
// DroppedSpans counts events discarded by the per-request buffer bound.
type TraceResponse struct {
	ID           string           `json:"id"`
	Endpoint     string           `json:"endpoint"`
	Counters     map[string]int64 `json:"counters,omitempty"`
	DroppedSpans uint64           `json:"dropped_spans,omitempty"`
	Spans        []*obs.Node      `json:"spans,omitempty"`
}
