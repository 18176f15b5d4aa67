package equiv

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bpi/internal/obs"
	"bpi/internal/parser"
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
	r, err := ch.Labelled(p, q, false)
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
				if _, err := ch.Labelled(pr[0], pr[1], false); err != nil {
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

// benchQuery is the workload both overhead benchmarks run: a fresh checker
// on a cold store deciding a finite parallel pair whose pair space is a few hundred nodes — enough engine
// work that the per-pair obs cost is what the ratio measures.
func benchQuery(b *testing.B, tr *obs.Tracer) {
	b.Helper()
	p, err := parser.Parse("a! | b! | c! | d! | a?(x).x!")
	if err != nil {
		b.Fatal(err)
	}
	q, err := parser.Parse("a?(x).x! | d! | c! | b! | a!")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := NewChecker(nil)
		if tr != nil {
			ch.Obs = tr
			ch.Store().SetObs(tr)
		}
		if _, err := ch.Labelled(p, q, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLabelledUntraced(b *testing.B) { benchQuery(b, nil) }

func BenchmarkLabelledTraced(b *testing.B) {
	// A bounded tracer: long benchmark runs must not grow the event buffer
	// without limit, and a full buffer exercises the drop path's cost too.
	benchQuery(b, obs.NewWithLimit(1<<12))
}

// TestTracingOverheadBudget runs the traced/untraced benchmark pair and
// asserts the enabled-tracer overhead stays within budget. The contract is
// <5% in steady state; the asserted bound is deliberately generous (50%)
// because CI runs on noisy shared hardware — it exists to catch an
// accidental O(n) regression (a lock in the hot loop, a map lookup per
// pair), not to measure the true constant.
func TestTracingOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark pair under -short")
	}
	un := testing.Benchmark(BenchmarkLabelledUntraced)
	tr := testing.Benchmark(BenchmarkLabelledTraced)
	if un.N == 0 || un.NsPerOp() == 0 {
		t.Skip("benchmark produced no samples")
	}
	ratio := float64(tr.NsPerOp()) / float64(un.NsPerOp())
	t.Logf("untraced %v/op, traced %v/op, ratio %.3f", un.NsPerOp(), tr.NsPerOp(), ratio)
	if ratio > 1.5 {
		t.Errorf("tracing overhead ratio %.2f exceeds budget 1.5 (untraced %dns, traced %dns)",
			ratio, un.NsPerOp(), tr.NsPerOp())
	}
}
