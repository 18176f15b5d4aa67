package equiv

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/parser"
)

// TestStoreStatsMemoisedPath asserts that a repeated identical query is
// served from the memoised store: no new terms are interned and the
// derivation lookups hit the cache.
func TestStoreStatsMemoisedPath(t *testing.T) {
	p, err := parser.Parse("a?(x).x! + b!(c)")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a?(y).y! + b!(c)")
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewChecker(nil)
	if _, err := c1.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q}); err != nil {
		t.Fatal(err)
	}
	s1 := c1.Store().Stats()
	if s1.Terms == 0 || s1.DerivationMisses == 0 {
		t.Fatalf("first query should populate the store, got %+v", s1)
	}

	// A second checker over the SAME store: the engine re-runs, but every
	// semantic derivation should be a cache hit and the term set must not
	// grow.
	c2 := NewCheckerWithStore(c1.Store())
	if _, err := c2.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q}); err != nil {
		t.Fatal(err)
	}
	s2 := c2.Store().Stats()
	if s2.Terms != s1.Terms {
		t.Errorf("repeated query interned new terms: %d -> %d", s1.Terms, s2.Terms)
	}
	if s2.DerivationMisses != s1.DerivationMisses {
		t.Errorf("repeated query recomputed derivations: misses %d -> %d",
			s1.DerivationMisses, s2.DerivationMisses)
	}
	if s2.DerivationHits <= s1.DerivationHits {
		t.Errorf("repeated query did not hit the memoised path: hits %d -> %d",
			s1.DerivationHits, s2.DerivationHits)
	}
	if s2.InternHits <= s1.InternHits {
		t.Errorf("repeated query did not reuse interned terms: hits %d -> %d",
			s1.InternHits, s2.InternHits)
	}
}

// TestLabelledCtxDeadline runs the pair engine on an infinite-state pair
// with a 50ms deadline and a pair budget far beyond reach: the BFS loop
// must notice the expired context and return a typed ErrCanceled that
// errors.Is-matches context.DeadlineExceeded — not hang, and not report
// budget exhaustion.
func TestLabelledCtxDeadline(t *testing.T) {
	// Grow(a) receives on a and spawns a parallel output each time: the
	// reachable pair space is unbounded.
	p, err := parser.Parse("(rec G(a). a?(x).(x! | G(a)))(a)")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("(rec H(b). b?(y).(y! | H(b)))(a) + c!")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(nil)
	c.MaxPairs = 1 << 30
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Decide(ctx, Query{Rel: cert.RelLabelled, P: p, Q: q})
	if err == nil {
		t.Fatal("expected a deadline error, got a verdict")
	}
	var ec ErrCanceled
	if !errors.As(err, &ec) {
		t.Fatalf("expected ErrCanceled, got %T: %v", err, err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expected the error to unwrap to DeadlineExceeded, got %v", err)
	}
	var eb ErrBudget
	if errors.As(err, &eb) {
		t.Fatalf("deadline must not be reported as budget exhaustion: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %s — the BFS loop is not checking the context", elapsed)
	}
}

// TestCongruenceCtxCancel checks that the substitution-closure loop is
// cancellable too.
func TestCongruenceCtxCancel(t *testing.T) {
	p, err := parser.Parse("a?(x).b?(y).(x! + y!) + c!(d).e!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a?(x).b?(y).(y! + x!) + c!(d).e!")
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the first loop check must fire
	if _, err := c.Decide(ctx, Query{Rel: cert.RelCongruence, P: p, Q: q}); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

// TestEnumerationsBounded: payload tuples and fusions are walked one at a
// time with the context checked at each, and max_subs stops the fusion walk
// before the next fusion is built. When the lists were built whole, this
// test measured 2.07 s and 757 MB for the labelled arity-5 pair (12^5
// payloads at its root), and 0.76 s and 315 MB for the ~c pair (7^7
// fusions, all built before the first was tried), on two CPUs.
func TestEnumerationsBounded(t *testing.T) {
	wide, err := parser.Parse("a?(x0,x1,x2,x3,x4).0 | b0! | b1! | b2! | b3! | b4! | b5!")
	if err != nil {
		t.Fatal(err)
	}
	r, err := decideWithin(t, "labelled arity 5", Query{Rel: cert.RelLabelled, P: wide, Q: wide},
		50*time.Millisecond, 150*time.Millisecond)
	var ec ErrCanceled
	if !errors.As(err, &ec) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("labelled arity 5: got %+v, %v; want an ErrCanceled past the deadline", r, err)
	}
	outs, err := parser.Parse("a0! | a1! | a2! | a3! | a4! | a5! | a6!")
	if err != nil {
		t.Fatal(err)
	}
	r, err = decideWithin(t, "congruence max_subs 1", Query{Rel: cert.RelCongruence, P: outs, Q: outs, MaxSubs: 1},
		100*time.Millisecond, 100*time.Millisecond)
	if err != nil || !r.Related || r.Cert != nil {
		t.Errorf("congruence max_subs 1: got %+v, %v; want related and truncated, with no certificate", r, err)
	}
}

// decideWithin decides q on a fresh certifying checker under a deadline,
// and requires the answer within the given time and 64 MB allocated.
func decideWithin(t *testing.T, name string, q Query, deadline, within time.Duration) (Result, error) {
	t.Helper()
	c := NewChecker(nil)
	c.Certify = true
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	r, err := c.Decide(ctx, q)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("%s: %s, %.1f MB", name, elapsed, mb)
	if elapsed > within {
		t.Errorf("%s: took %s, want under %s", name, elapsed, within)
	}
	if mb > 64 {
		t.Errorf("%s: allocated %.1f MB, want under 64 MB", name, mb)
	}
	return r, err
}
