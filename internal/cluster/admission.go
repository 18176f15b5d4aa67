// Package cluster is bpid's admission control: a bounded admission queue
// in front of the worker pool. Load beyond the queue is shed immediately
// with a typed cause (queue_full, deadline_budget, draining) and a
// Retry-After hint, instead of accumulating latency for everyone.
//
// The package does not import internal/service: the service tier calls
// Admit per query and maps a Shed onto its typed 429 error body.
package cluster

import (
	"sync/atomic"
	"time"
)

// Shed causes. These are the wire-visible error codes of the 429 taxonomy;
// the service tier maps them onto its typed error body unchanged.
const (
	// CauseQueueFull sheds load beyond the bounded admission queue.
	CauseQueueFull = "queue_full"
	// CauseDeadlineBudget sheds a request whose own deadline cannot survive
	// the predicted queue wait: running it would burn a worker slot to
	// produce a deadline_exceeded error.
	CauseDeadlineBudget = "deadline_budget"
	// CauseDraining sheds everything while the daemon shuts down.
	CauseDraining = "draining"
)

// Shed is an admission refusal: the typed cause plus a Retry-After hint.
type Shed struct {
	Cause string
	// RetryAfter is the earliest retry that has a chance of being admitted
	// (rounded up to whole seconds for the HTTP header; never zero).
	RetryAfter time.Duration
}

// AdmissionStats is a point-in-time snapshot for the metrics surface.
type AdmissionStats struct {
	Capacity int
	Workers  int
	// Inflight counts admitted-and-unfinished requests (executing + queued).
	Inflight int64
	Admitted uint64
	// Shed counts per cause.
	ShedQueueFull      uint64
	ShedDeadlineBudget uint64
	ShedDraining       uint64
	// EstServiceSeconds is the EWMA of recent per-request service time that
	// wait prediction is based on.
	EstServiceSeconds float64
}

// Admission is the bounded admission queue in front of the worker pool.
// Capacity bounds how many admitted requests may be *waiting* (beyond the
// workers that can execute immediately); everything past that is shed with
// CauseQueueFull instead of queueing unbounded latency. A request carrying
// a deadline is additionally shed with CauseDeadlineBudget when the
// predicted queue wait — queued position times the EWMA of recent service
// times, divided by the worker count — already exceeds its remaining
// budget. Admission is non-blocking by construction: the decision is a few
// atomics, taken before any worker-pool wait.
type Admission struct {
	capacity int
	workers  int

	inflight atomic.Int64
	admitted atomic.Uint64
	shedQF   atomic.Uint64
	shedDB   atomic.Uint64
	shedDR   atomic.Uint64

	// ewmaNs is the exponentially weighted moving average of observed
	// service times (alpha = 1/8), in nanoseconds. Zero until the first
	// completion; wait prediction treats zero as "unknown, admit".
	ewmaNs atomic.Int64
}

// NewAdmission builds an admission queue of the given capacity in front of
// a pool of workers executing slots. capacity <= 0 defaults to 64; workers
// <= 0 defaults to 1.
func NewAdmission(capacity, workers int) *Admission {
	if capacity <= 0 {
		capacity = 64
	}
	if workers <= 0 {
		workers = 1
	}
	return &Admission{capacity: capacity, workers: workers}
}

// ceilSeconds rounds d up to whole seconds, never below 1s.
func ceilSeconds(d time.Duration) time.Duration {
	if d <= time.Second {
		return time.Second
	}
	return ((d + time.Second - 1) / time.Second) * time.Second
}

// predictWait estimates how long the request admitted into queued position
// n (1-based among the waiters) will wait for a worker slot.
func (a *Admission) predictWait(queued int64) time.Duration {
	if queued <= 0 {
		return 0
	}
	ewma := time.Duration(a.ewmaNs.Load())
	if ewma <= 0 {
		return 0
	}
	rounds := (queued + int64(a.workers) - 1) / int64(a.workers)
	return time.Duration(rounds) * ewma
}

// Admit decides one request. budget is the request's total deadline budget
// (<= 0 means no deadline — never shed for budget); draining reports that
// the daemon is shutting down. On admission it returns a release func the
// caller MUST invoke exactly once when the request finishes, passing the
// observed service time (how long a worker actually spent on it; pass 0 to
// leave the estimate untouched). On refusal it returns a non-nil *Shed and
// a nil release.
func (a *Admission) Admit(budget time.Duration, draining bool) (release func(served time.Duration), shed *Shed) {
	if draining {
		a.shedDR.Add(1)
		return nil, &Shed{Cause: CauseDraining, RetryAfter: time.Second}
	}
	inflight := a.inflight.Add(1)
	queued := inflight - int64(a.workers)
	if queued > int64(a.capacity) {
		a.inflight.Add(-1)
		a.shedQF.Add(1)
		// Hint: the queue drains one "round" of workers per EWMA tick.
		return nil, &Shed{Cause: CauseQueueFull, RetryAfter: ceilSeconds(a.predictWait(queued))}
	}
	if wait := a.predictWait(queued); budget > 0 && wait > budget {
		a.inflight.Add(-1)
		a.shedDB.Add(1)
		return nil, &Shed{Cause: CauseDeadlineBudget, RetryAfter: ceilSeconds(wait)}
	}
	a.admitted.Add(1)
	var done atomic.Bool
	return func(served time.Duration) {
		if !done.CompareAndSwap(false, true) {
			return
		}
		a.inflight.Add(-1)
		if served > 0 {
			a.observe(served)
		}
	}, nil
}

// observe folds one completed service time into the EWMA (alpha = 1/8).
// The CAS loop keeps concurrent updates lossless without a mutex.
func (a *Admission) observe(served time.Duration) {
	for {
		old := a.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = int64(served)
		} else {
			next = old + (int64(served)-old)/8
			if next <= 0 {
				next = 1
			}
		}
		if a.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// SeedEstimate primes the service-time EWMA (tests and warm restarts).
func (a *Admission) SeedEstimate(d time.Duration) { a.ewmaNs.Store(int64(d)) }

// Stats snapshots the counters.
func (a *Admission) Stats() AdmissionStats {
	return AdmissionStats{
		Capacity:           a.capacity,
		Workers:            a.workers,
		Inflight:           a.inflight.Load(),
		Admitted:           a.admitted.Load(),
		ShedQueueFull:      a.shedQF.Load(),
		ShedDeadlineBudget: a.shedDB.Load(),
		ShedDraining:       a.shedDR.Load(),
		EstServiceSeconds:  time.Duration(a.ewmaNs.Load()).Seconds(),
	}
}
