// Package obs is the reproduction's zero-dependency observability layer:
// named spans with monotonic timings, one concurrency-safe event buffer,
// Chrome trace-event JSON export, and named engine counters.
//
// The package is built around one contract: a nil *Tracer is a valid,
// fully-disabled tracer.  Every method on *Tracer, *Span and *Counter is
// nil-safe and the disabled path performs no allocation and no atomic
// write — instrumentation can therefore stay compiled into hot loops
// (the pair engine, the LTS explorer, the prover) and be switched on per
// request by handing the layer a non-nil tracer.  The zero-alloc claim is
// enforced by tests (testing.AllocsPerRun) in this package and at the
// call sites in internal/equiv.
//
// Span names and counter names form a small fixed taxonomy documented in
// DESIGN.md §6.2.  Call sites must pass string literals (never
// fmt.Sprintf results) so the disabled path stays allocation-free.
package obs

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultLimit bounds the number of recorded span events per Tracer when
// constructed by New.  A bounded buffer keeps a long-running daemon from
// accumulating unbounded trace data; overflow is counted, not silently
// ignored (see Dropped).
const DefaultLimit = 1 << 16

// Event is one completed span occurrence.  Times are offsets from the
// tracer's creation instant, measured on the monotonic clock.
type Event struct {
	Name   string
	ID     uint64 // unique per tracer, allocation order
	Parent uint64 // 0 for roots
	Start  time.Duration
	Dur    time.Duration
}

// Tracer collects span events and named counters.  All methods are safe
// for concurrent use; a nil *Tracer is a no-op on every method.
type Tracer struct {
	anchor time.Time
	nextID atomic.Uint64
	limit  int

	// mu guards the recorded events and the count of those dropped past
	// the limit.
	mu      sync.Mutex
	events  []Event
	dropped uint64

	cmu      sync.RWMutex
	counters map[string]*Counter
}

// New returns an enabled tracer with the default event limit.
func New() *Tracer { return NewWithLimit(DefaultLimit) }

// NewWithLimit returns an enabled tracer retaining at most max span
// events; further spans still time correctly but their events are
// dropped and counted.  max <= 0 means unlimited.
func NewWithLimit(max int) *Tracer {
	return &Tracer{
		anchor:   time.Now(),
		limit:    max,
		counters: make(map[string]*Counter),
	}
}

// Span starts a root span.  End it with (*Span).End.  Returns nil (a
// valid no-op span) when the tracer is nil.
func (t *Tracer) Span(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{
		t:     t,
		name:  name,
		id:    t.nextID.Add(1),
		start: time.Since(t.anchor),
	}
}

// Span is an in-progress timed region.  A nil *Span is a valid no-op.
type Span struct {
	t      *Tracer
	name   string
	id     uint64
	parent uint64
	start  time.Duration
}

// Child starts a span nested under s.  Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.t.Span(name)
	c.parent = s.id
	return c
}

// End records the span's event.  Nil-safe; End on a nil span does
// nothing and allocates nothing.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	ev := Event{
		Name:   s.name,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start,
		Dur:    time.Since(t.anchor) - s.start,
	}
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Counter is a named monotonically-adjusted engine counter.  Hot loops
// should resolve the counter once with (*Tracer).Counter and call Add on
// the (possibly nil) result: Add on a nil *Counter is a no-op with no
// allocation and no atomic traffic.
type Counter struct{ v atomic.Int64 }

// Add adjusts the counter.  Nil-safe.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value reads the counter.  Nil-safe (returns 0).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use.  Returns
// nil when the tracer is nil — the intended pattern is to resolve
// counters once per run and let nil flow through to Add.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.cmu.RLock()
	c := t.counters[name]
	t.cmu.RUnlock()
	if c != nil {
		return c
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	if c = t.counters[name]; c == nil {
		c = new(Counter)
		t.counters[name] = c
	}
	return c
}

// Count adds d to the named counter.  Convenience for cold paths; hot
// loops should pre-resolve with Counter.  Nil-safe.
func (t *Tracer) Count(name string, d int64) {
	if t == nil {
		return
	}
	t.Counter(name).Add(d)
}

// Counters returns a snapshot of all counters.  Nil-safe (returns nil).
func (t *Tracer) Counters() map[string]int64 {
	if t == nil {
		return nil
	}
	t.cmu.RLock()
	defer t.cmu.RUnlock()
	out := make(map[string]int64, len(t.counters))
	for name, c := range t.counters {
		out[name] = c.Value()
	}
	return out
}

// Dropped reports how many span events were discarded due to the event
// limit.  Nil-safe.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Events returns all recorded span events sorted by start time (ties by
// allocation ID, which equals span-start order).  Nil-safe.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	all := slices.Clone(t.events)
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Start != all[j].Start {
			return all[i].Start < all[j].Start
		}
		return all[i].ID < all[j].ID
	})
	return all
}
