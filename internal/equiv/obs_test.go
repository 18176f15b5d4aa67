package equiv

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/obs"
	"bpi/internal/parser"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// TestDisabledObsZeroAlloc is the overhead contract referenced from
// Checker.Obs: the exact call-site sequence the engine performs per pair —
// span open/close, counter resolution, counter adds, named counts — must
// cost zero allocations when no tracer is attached.
func TestDisabledObsZeroAlloc(t *testing.T) {
	var tr *obs.Tracer // a disabled checker has c.Obs == nil
	allocs := testing.AllocsPerRun(1000, func() {
		run := tr.Span("equiv.run")
		cPairs := tr.Counter("equiv.pairs_expanded")
		ex := run.Child("equiv.explore")
		xp := ex.Child("equiv.expand")
		cPairs.Add(1)
		xp.End()
		ex.End()
		tr.Count("equiv.verdict_misses", 1)
		fix := run.Child("equiv.fixpoint")
		fix.End()
		run.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocates %.1f bytes-objects per run, want 0", allocs)
	}
}

// TestSpanTreeGolden pins the span tree of the paper's hello-world query —
// a!.0 | a?(x).0 against its commutation — against a golden file. The
// engine explores deterministically (fresh store), so the span skeleton is
// stable: one run containing the explore phase (the in-order expand pass)
// and the fixpoint sweep.
func TestSpanTreeGolden(t *testing.T) {
	p, err := parser.Parse("a!.0 | a?(x).0")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a?(x).0 | a!.0")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	ch := NewChecker(nil)
	ch.Obs = tr
	r, err := ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Related {
		t.Fatalf("%s ≁ %s: %s", syntax.String(p), syntax.String(q), r.Reason)
	}
	got := obs.RenderNames(tr.Tree())
	golden := filepath.Join("testdata", "span_tree.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("span tree drifted from %s (UPDATE_GOLDEN=1 regenerates):\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
	if tr.Counters()["equiv.pairs_expanded"] != int64(r.Pairs) {
		t.Errorf("equiv.pairs_expanded = %d, Result.Pairs = %d", tr.Counters()["equiv.pairs_expanded"], r.Pairs)
	}
}

// TestEngineCountersPinned pins the two engine counters of four decisions:
// equiv.pairs_expanded counts the pairs and equiv.worklist_pops the pairs
// the fixpoint found dead, those that failed their barb check before it
// ran included. A fixpoint that dropped the statically dead pairs from the
// counter read 0 pops for mesh-12 and 1 for the weak step pair.
func TestEngineCountersPinned(t *testing.T) {
	g := stress.GoldenMesh()
	rings := stress.Rings(3, 2)
	small := func(src string) syntax.Proc {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p, q := small("a!.b! | c?.d!"), small("a!.c! | c?.d!")
	for _, tc := range []struct {
		name        string
		q           Query
		related     bool
		pairs, pops int64
	}{
		{"mesh-12 step", Query{Rel: cert.RelStep, P: g.P, Q: g.Q}, true, 4049, 3672},
		{"rings-3x2 labelled", Query{Rel: cert.RelLabelled, P: rings, Q: stress.Rotate(rings)}, true, 2197, 0},
		{"a!.b! | c?.d! labelled", Query{Rel: cert.RelLabelled, P: p, Q: q}, false, 6, 6},
		{"a!.b! | c?.d! weak step", Query{Rel: cert.RelStep, Weak: true, P: p, Q: q}, false, 7, 7},
	} {
		tr := obs.New()
		c := NewChecker(nil)
		c.Obs = tr
		r, err := c.Decide(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := tr.Counters()
		if r.Related != tc.related || got["equiv.pairs_expanded"] != tc.pairs || got["equiv.worklist_pops"] != tc.pops {
			t.Errorf("%s: related=%v, %d pairs expanded, %d worklist pops; want %v, %d, %d", tc.name,
				r.Related, got["equiv.pairs_expanded"], got["equiv.worklist_pops"], tc.related, tc.pairs, tc.pops)
		}
	}
}

// TestObsParallelCheckerRace hammers one tracer through a checker shared by
// parallel queries — the engine's counter adds, span ends and the store's
// mirrored counters all land on the same Tracer. Run under -race this is
// the data-race proof for the obs threading.
func TestObsParallelCheckerRace(t *testing.T) {
	tr := obs.New()
	ch := NewChecker(nil)
	ch.Obs = tr
	ch.Store().SetObs(tr)
	pairs := samplePairs(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				pr := pairs[(w+i)%len(pairs)]
				if _, err := ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: pr[0], Q: pr[1]}); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				_ = tr.Counters()
			}
		}(w)
	}
	wg.Wait()
	if tr.Counters()["equiv.pairs_expanded"] == 0 {
		t.Error("no pairs counted across the concurrent queries")
	}
}

// TestTracingOverheadBudget decides a finite parallel pair whose pair
// space is a few hundred nodes (enough engine work that the per-pair obs
// cost is what the ratio measures) on a fresh checker with a cold store,
// in alternating untraced and traced rounds, and asserts that the traced
// side's fastest round is within budget of the untraced side's. Outside
// load only adds time, so the fastest round of each side is the one load
// disturbed least, and alternation gives both sides the same quiet spells.
// The contract is <5% in steady state; the asserted bound is deliberately
// generous (50%) because CI runs on noisy shared hardware — it exists to
// catch an accidental O(n) regression (a lock in the hot loop, a map
// lookup per pair), not to measure the true constant.
func TestTracingOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test under -short")
	}
	const rounds, roundTime = 10, 120 * time.Millisecond
	p, err := parser.Parse("a! | b! | c! | d! | a?(x).x!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a?(x).x! | d! | c! | b! | a!")
	if err != nil {
		t.Fatal(err)
	}
	// A bounded tracer: the traced rounds must not grow the event buffer
	// without limit, and a full buffer exercises the drop path's cost too.
	tr := obs.NewWithLimit(1 << 12)
	// perOp runs n queries, traced when tr is non-nil, and returns their
	// mean time.
	perOp := func(tr *obs.Tracer, n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			ch := NewChecker(nil)
			if tr != nil {
				ch.Obs = tr
				ch.Store().SetObs(tr)
			}
			if _, err := ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q}); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start) / time.Duration(n)
	}
	// Size a round from the mean of ten warm-up queries.
	n := max(1, int(roundTime/max(1, perOp(nil, 10))))
	un, traced := perOp(nil, n), perOp(tr, n)
	for r := 1; r < rounds; r++ {
		un = min(un, perOp(nil, n))
		traced = min(traced, perOp(tr, n))
	}
	ratio := float64(traced) / float64(un)
	t.Logf("%d rounds of %d queries: fastest untraced %v/op, traced %v/op, ratio %.3f", rounds, n, un, traced, ratio)
	if ratio > 1.5 {
		t.Errorf("tracing overhead ratio %.2f exceeds budget 1.5 (untraced %v, traced %v)", ratio, un, traced)
	}
}
