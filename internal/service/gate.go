package service

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"time"
)

// gate is the one way work reaches a worker. Every worker endpoint and
// every batch item takes a ticket from it, and the gate owns everything
// that bounds that work:
//
//   - the worker slots (Config.Workers) and the bounded queue beyond them
//     (Config.AdmissionQueue): work past both is shed with queue_full;
//   - the wait predictor, an EWMA (alpha = 1/8) of the time work held a
//     worker: work whose deadline budget cannot survive the predicted queue
//     wait is shed with deadline_budget, instead of burning a worker only to
//     time out;
//   - the drain: once closed, the gate sheds everything with draining, and
//     Shutdown waits on the drain group for every ticket already issued.
//
// Every shed is a typed 429 carrying a Retry-After hint. admit never waits
// for a worker; only ticket.wait does.
type gate struct {
	slots    chan struct{} // worker semaphore; len = busy workers
	capacity int           // places beyond the workers

	mu       sync.Mutex
	closed   bool
	drain    sync.WaitGroup // one count per ticket not yet done
	inflight int            // tickets not yet done: running and queued
	admitted uint64
	shed     map[string]uint64 // by cause (error code)
	ewma     time.Duration     // zero until the first observation: predict no wait
}

func newGate(workers, capacity int) *gate {
	return &gate{
		slots:    make(chan struct{}, workers),
		capacity: capacity,
		shed:     map[string]uint64{},
	}
}

// ticket is one admitted unit of work. It belongs to one goroutine at a
// time.
type ticket struct {
	g        *gate
	slot     bool // holds a worker slot
	finished bool
}

// admit decides one unit of work without waiting. budget is its deadline
// budget; every request has one, and only the test hooks admit with none
// (<= 0), which is never shed for budget. The drain check and the drain
// registration share the critical section that close takes, so no ticket
// is issued once Shutdown has begun to wait.
func (g *gate) admit(budget time.Duration) (*ticket, *ErrorBody) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if eb := g.refusal(budget); eb != nil {
		g.shed[eb.Code]++
		return nil, eb
	}
	g.inflight++
	g.admitted++
	g.drain.Add(1)
	return &ticket{g: g}, nil
}

// refusal returns the shed of one more unit of work, or nil to admit it.
// The caller holds g.mu.
func (g *gate) refusal(budget time.Duration) *ErrorBody {
	if g.closed {
		return &ErrorBody{Code: CodeDraining, RetryAfterSec: 1,
			Message: "daemon is draining; retry against another node"}
	}
	queued := g.inflight + 1 - cap(g.slots)
	wait := g.predictWait(queued)
	if queued > g.capacity {
		// The queue drains one round of workers per EWMA tick.
		return &ErrorBody{Code: CodeQueueFull, RetryAfterSec: retryAfterSec(wait),
			Message: "admission queue is full"}
	}
	if budget > 0 && wait > budget {
		return &ErrorBody{Code: CodeDeadlineBudget, RetryAfterSec: retryAfterSec(wait),
			Message: "predicted queue wait exceeds the request deadline budget"}
	}
	return nil
}

// predictWait estimates how long work at the given queue position (1-based
// among the waiters) waits for a worker. The caller holds g.mu.
func (g *gate) predictWait(queued int) time.Duration {
	if queued <= 0 || g.ewma <= 0 {
		return 0
	}
	workers := cap(g.slots)
	return time.Duration((queued+workers-1)/workers) * g.ewma
}

// retryAfterSec rounds a predicted wait up to whole seconds, never below 1.
func retryAfterSec(d time.Duration) int {
	if sec := int((d + time.Second - 1) / time.Second); sec > 1 {
		return sec
	}
	return 1
}

// deadline is one request's deadline, fixed on arrival, as a
// context.Context whose timer is made only when something waits on Done:
// the gate's wait for a worker slot. The engines poll Err, which reads the
// clock, so neither a verdict-cache hit nor an engine run makes a timer.
type deadline struct {
	parent context.Context
	at     time.Time

	mu     sync.Mutex
	timed  context.Context // made by the first Done
	cancel context.CancelFunc
}

func newDeadline(parent context.Context, at time.Time) *deadline {
	return &deadline{parent: parent, at: at}
}

func (d *deadline) Deadline() (time.Time, bool) {
	if p, ok := d.parent.Deadline(); ok && p.Before(d.at) {
		return p, true
	}
	return d.at, true
}

func (d *deadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timed == nil {
		d.timed, d.cancel = context.WithDeadline(d.parent, d.at)
	}
	return d.timed.Done()
}

func (d *deadline) Err() error {
	d.mu.Lock()
	timed := d.timed
	d.mu.Unlock()
	if timed != nil {
		return timed.Err()
	}
	if err := d.parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(d.at) {
		return context.DeadlineExceeded
	}
	return nil
}

func (d *deadline) Value(key any) any { return d.parent.Value(key) }

// release stops the timer, if Done made one.
func (d *deadline) release() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cancel != nil {
		d.cancel()
	}
}

// take takes a free worker slot for the ticket without waiting, and
// reports whether it did. A slot freed while others wait goes to a waiter.
func (t *ticket) take() bool {
	select {
	case t.g.slots <- struct{}{}:
		t.slot = true
		return true
	default:
		return false
	}
}

// wait takes a worker slot for the ticket, or gives up when ctx, which
// carries the request's deadline, is done.
func (t *ticket) wait(ctx context.Context) *ErrorBody {
	select {
	case t.g.slots <- struct{}{}:
		t.slot = true
		return nil
	case <-ctx.Done():
		return classify(ctx.Err())
	}
}

// done frees the ticket's worker slot and queue place and, when served > 0,
// folds the time the work held the worker into the wait predictor. Calls
// after the first do nothing.
func (t *ticket) done(served time.Duration) {
	if t.finished {
		return
	}
	t.finished = true
	g := t.g
	if t.slot {
		<-g.slots
	}
	g.mu.Lock()
	g.inflight--
	switch {
	case served <= 0:
	case g.ewma == 0:
		g.ewma = served
	default:
		g.ewma += (served - g.ewma) / 8
	}
	g.mu.Unlock()
	g.drain.Done()
}

// serve takes a worker slot, waiting for one under ctx only when none is
// free, runs fn on it and finishes the ticket on every path, feeding the
// time fn held the worker to the wait predictor. It returns the wait's
// error, if the wait gave up.
func (t *ticket) serve(ctx context.Context, fn func()) *ErrorBody {
	if !t.take() {
		if eb := t.wait(ctx); eb != nil {
			t.done(0)
			return eb
		}
	}
	start := time.Now()
	defer func() { t.done(time.Since(start)) }()
	fn()
	return nil
}

// close sheds all further work with draining; Shutdown then waits on drain.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}

func (g *gate) draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.closed
}

// gateStats is a snapshot of the gate's counters.
type gateStats struct {
	Inflight int
	Admitted uint64
	Shed     map[string]uint64 // by cause
	EWMA     time.Duration
}

func (g *gate) stats() gateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return gateStats{Inflight: g.inflight, Admitted: g.admitted, Shed: maps.Clone(g.shed), EWMA: g.ewma}
}

// gauges appends the worker and admission series to the /metrics
// exposition.
func (g *gate) gauges(gauges []gauge) []gauge {
	st := g.stats()
	gauges = append(gauges,
		gauge{"bpid_workers", "Worker-pool size.", `{state="total"}`, float64(cap(g.slots))},
		gauge{"bpid_workers", "Worker-pool size.", `{state="busy"}`, float64(len(g.slots))},
		gauge{"bpid_admission_capacity", "Admission queue capacity (waiters beyond the worker pool).", "", float64(g.capacity)},
		gauge{"bpid_admission_inflight", "Work admitted and not yet done: running and queued.", "", float64(st.Inflight)},
		gauge{"bpid_admission_admitted_total", "Work admitted.", "", float64(st.Admitted)},
	)
	for _, c := range []string{CodeQueueFull, CodeDeadlineBudget, CodeDraining} {
		gauges = append(gauges, gauge{"bpid_admission_shed_total", "Work shed, by cause.", fmt.Sprintf("{cause=%q}", c), float64(st.Shed[c])})
	}
	return append(gauges, gauge{"bpid_admission_est_service_seconds", "EWMA of the time work held a worker.", "", st.EWMA.Seconds()})
}
