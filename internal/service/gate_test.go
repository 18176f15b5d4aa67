package service

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/obs"
)

// TestAdmissionCauses table-tests the three shed causes and their
// Retry-After hints; everything here is deterministic — no goroutines.
func TestAdmissionCauses(t *testing.T) {
	t.Run("draining", func(t *testing.T) {
		g := newGate(1, 4)
		g.close()
		tk, eb := g.admit(0)
		if tk != nil || eb == nil || eb.Code != CodeDraining {
			t.Fatalf("draining admit: admitted=%t shed=%+v", tk != nil, eb)
		}
		if eb.RetryAfterSec < 1 {
			t.Fatalf("Retry-After = %ds, must be >= 1s", eb.RetryAfterSec)
		}
	})

	t.Run("queue_full", func(t *testing.T) {
		g := newGate(1, 2) // 1 executing + 2 queued fit; the 4th sheds
		var tks []*ticket
		for i := 0; i < 3; i++ {
			tk, eb := g.admit(0)
			if eb != nil {
				t.Fatalf("admit %d shed: %+v", i, eb)
			}
			tks = append(tks, tk)
		}
		tk, eb := g.admit(0)
		if tk != nil || eb == nil || eb.Code != CodeQueueFull {
			t.Fatalf("over-capacity admit: admitted=%t shed=%+v", tk != nil, eb)
		}
		if eb.RetryAfterSec < 1 {
			t.Fatalf("Retry-After = %ds, must be >= 1s", eb.RetryAfterSec)
		}
		// Finishing one makes room again.
		tks[0].done(10 * time.Millisecond)
		if tk, eb = g.admit(0); eb != nil {
			t.Fatalf("post-release admit shed: %+v", eb)
		}
		tk.done(0)
		tks[1].done(0)
		tks[2].done(0)
		st := g.stats()
		if st.Inflight != 0 || st.Shed[CodeQueueFull] != 1 || st.Admitted != 4 {
			t.Fatalf("stats: %+v", st)
		}
	})

	t.Run("deadline_budget", func(t *testing.T) {
		g := newGate(1, 8)
		g.ewma = 2 * time.Second
		// Occupy the single worker so the next request is queued.
		busy, eb := g.admit(0)
		if eb != nil {
			t.Fatalf("busy admit shed: %+v", eb)
		}
		defer busy.done(0)
		// Queued position 1, predicted wait 2s, budget 50ms: shed.
		tk, eb := g.admit(50 * time.Millisecond)
		if tk != nil || eb == nil || eb.Code != CodeDeadlineBudget {
			t.Fatalf("short-budget admit: admitted=%t shed=%+v", tk != nil, eb)
		}
		if eb.RetryAfterSec < 2 {
			t.Fatalf("Retry-After = %ds, predicted wait was 2s", eb.RetryAfterSec)
		}
		// The same position with a big budget is admitted.
		tk, eb = g.admit(time.Minute)
		if eb != nil {
			t.Fatalf("long-budget admit shed: %+v", eb)
		}
		tk.done(0)
		// No deadline means never shedding for budget.
		tk, eb = g.admit(0)
		if eb != nil {
			t.Fatalf("no-deadline admit shed: %+v", eb)
		}
		tk.done(0)
		if st := g.stats(); st.Shed[CodeDeadlineBudget] != 1 {
			t.Fatalf("stats: %+v", st)
		}
	})
}

// TestAdmissionReleaseIdempotent pins that finishing a ticket twice cannot
// corrupt the inflight gauge, the worker slots or the drain.
func TestAdmissionReleaseIdempotent(t *testing.T) {
	g := newGate(2, 4)
	tk, eb := g.admit(0)
	if eb != nil {
		t.Fatal(eb)
	}
	tk.wait(context.Background())
	tk.done(time.Millisecond)
	tk.done(time.Millisecond)
	tk.done(0)
	if st := g.stats(); st.Inflight != 0 || len(g.slots) != 0 {
		t.Fatalf("inflight = %d, busy = %d after triple release", st.Inflight, len(g.slots))
	}
	g.drain.Wait() // a second Done would have panicked
}

// TestAdmissionEWMA checks the estimate converges onto a steady service
// time and that unknown (zero) estimates never shed for budget.
func TestAdmissionEWMA(t *testing.T) {
	g := newGate(1, 4)
	if w := g.predictWait(3); w != 0 {
		t.Fatalf("predicted wait with no estimate = %s, want 0", w)
	}
	for i := 0; i < 64; i++ {
		tk, eb := g.admit(0)
		if eb != nil {
			t.Fatal(eb)
		}
		tk.done(100 * time.Millisecond)
	}
	got := g.stats().EWMA.Seconds()
	if got < 0.05 || got > 0.2 {
		t.Fatalf("EWMA after steady 100ms services = %gs", got)
	}
	// Two queued rounds at 1 worker ≈ 2 × EWMA.
	if w := g.predictWait(2); w < 100*time.Millisecond || w > 400*time.Millisecond {
		t.Fatalf("predictWait(2) = %s", w)
	}
}

// TestAdmissionRace hammers one gate with 64 goroutines under the race
// detector: admit, take a worker slot, finish with a service time.
// Invariants: the inflight gauge and the busy workers return to zero,
// every attempt is either admitted or counted against exactly one shed
// cause, and inflight never exceeds workers+capacity.
func TestAdmissionRace(t *testing.T) {
	const (
		goroutines = 64
		iters      = 200
		workers    = 4
		capacity   = 8
	)
	g := newGate(workers, capacity)
	var wg sync.WaitGroup
	var attempts [goroutines]uint64
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for n := 0; n < iters; n++ {
				attempts[i]++
				budget := time.Duration(0)
				if rng.Intn(4) == 0 {
					budget = time.Duration(rng.Intn(10)) * time.Millisecond
				}
				tk, eb := g.admit(budget)
				if eb != nil {
					switch eb.Code {
					case CodeQueueFull, CodeDeadlineBudget:
					default:
						t.Errorf("unexpected shed cause %q", eb.Code)
					}
					continue
				}
				if inflight := g.stats().Inflight; inflight > workers+capacity {
					t.Errorf("inflight %d exceeds workers+capacity %d", inflight, workers+capacity)
				}
				if eb := tk.wait(context.Background()); eb != nil {
					t.Errorf("slot wait: %+v", eb)
				}
				tk.done(time.Duration(rng.Intn(200)) * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	g.drain.Wait()
	st := g.stats()
	if st.Inflight != 0 || len(g.slots) != 0 {
		t.Fatalf("inflight = %d, busy = %d after all tickets finished", st.Inflight, len(g.slots))
	}
	var total uint64
	for _, n := range attempts {
		total += n
	}
	if shed := st.Shed[CodeQueueFull] + st.Shed[CodeDeadlineBudget] + st.Shed[CodeDraining]; st.Admitted+shed != total {
		t.Fatalf("accounting leak: admitted %d + shed %v != attempts %d", st.Admitted, st.Shed, total)
	}
}

// TestGateWaitGivesUp: work whose client goes while it is queued for a
// worker never runs, and its ticket still gives back its queue place and
// its drain count.
func TestGateWaitGivesUp(t *testing.T) {
	g := newGate(1, 1)
	busy, eb := g.admit(0)
	if eb != nil {
		t.Fatal(eb)
	}
	busy.wait(context.Background())
	queued, eb := g.admit(0)
	if eb != nil {
		t.Fatal(eb)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if eb := queued.serve(ctx, func() { ran = true }); eb == nil || eb.Code != CodeDeadline || ran {
		t.Fatalf("serve with the client gone: %+v, ran=%t; want deadline_exceeded without running", eb, ran)
	}
	if st := g.stats(); st.Inflight != 1 || st.EWMA != 0 {
		t.Fatalf("stats %+v, want only the busy ticket in flight and nothing observed", st)
	}
	busy.done(0)
	g.drain.Wait()
}

// TestDeadlineTimerOnlyForWaits: a request's deadline makes a timer only
// when the request waits for a worker slot. An engine run and a
// verdict-cache hit poll Err, which reads the clock, and make none; an
// engine run past the deadline still fails with deadline_exceeded.
func TestDeadlineTimerOnlyForWaits(t *testing.T) {
	type key struct{}
	at := time.Now().Add(time.Minute)
	parent, cancel := context.WithDeadline(context.WithValue(context.Background(), key{}, "v"), at.Add(-time.Second))
	defer cancel()
	if d, ok := newDeadline(parent, at).Deadline(); !ok || !d.Equal(at.Add(-time.Second)) {
		t.Fatalf("Deadline = %v, %t; want the parent's earlier deadline", d, ok)
	}
	if d, ok := newDeadline(context.Background(), at).Deadline(); !ok || !d.Equal(at) {
		t.Fatalf("Deadline = %v, %t; want %v", d, ok, at)
	}
	if v := newDeadline(parent, at).Value(key{}); v != "v" {
		t.Fatalf("Value = %v, want the parent's", v)
	}

	s := New(Config{Workers: 1})
	req := &EquivRequest{P: "a! | b!", Q: "a!.b! + b!.a!", Rel: cert.RelLabelled}
	for _, cached := range []bool{false, true} { // an engine run, then a cache hit
		dl := newDeadline(context.Background(), time.Now().Add(time.Minute))
		resp, eb := s.runEquiv(dl, req, obs.NewWithLimit(traceLimit))
		if eb != nil || resp.Cached != cached || !resp.Related {
			t.Fatalf("runEquiv: %+v %+v, want cached=%t", resp, eb, cached)
		}
		if dl.timed != nil {
			t.Fatalf("cached=%t made a timer", cached)
		}
	}
	expired := newDeadline(context.Background(), time.Now().Add(-time.Millisecond))
	if _, eb := s.runEquiv(expired, &EquivRequest{P: "a!", Q: "b!", Rel: cert.RelLabelled}, nil); eb == nil || eb.Code != CodeDeadline {
		t.Fatalf("engine run past the deadline: %+v, want deadline_exceeded", eb)
	}
	if expired.timed != nil {
		t.Fatal("an engine run past the deadline made a timer")
	}

	busy, eb := s.gate.admit(0)
	if eb != nil {
		t.Fatal(eb)
	}
	busy.wait(context.Background())
	queued, eb := s.gate.admit(0)
	if eb != nil {
		t.Fatal(eb)
	}
	dl := newDeadline(context.Background(), time.Now().Add(20*time.Millisecond))
	defer dl.release()
	if eb := queued.serve(dl, func() {}); eb == nil || eb.Code != CodeDeadline {
		t.Fatalf("wait past the deadline: %+v, want deadline_exceeded", eb)
	}
	if dl.timed == nil {
		t.Fatal("a wait for a worker slot made no timer")
	}
	busy.done(0)
	s.gate.drain.Wait()
}
