package equiv

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"bpi/internal/cert"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// samplePairs regenerates the Theorem 1 pair population (same seed and
// mutation mix as theorem1_test.go).
func samplePairs(n int) [][2]syntax.Proc {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(12345, cfg)
	out := make([][2]syntax.Proc, n)
	for i := range out {
		p := g.Term()
		out[i] = [2]syntax.Proc{p, g.Mutate(p)}
	}
	return out
}

// relations is the query mix of the Theorem 1 sweep: the three
// bisimilarities, strong and weak.
var relations = []struct {
	rel  string
	weak bool
}{
	{cert.RelLabelled, false}, {cert.RelLabelled, true},
	{cert.RelBarbed, false}, {cert.RelBarbed, true},
	{cert.RelStep, false}, {cert.RelStep, true},
}

// sweepResult is a Result with its certificate marshalled, comparable
// with ==.
type sweepResult struct {
	related bool
	pairs   int
	reason  string
	cert    string
}

func sweepOutcome(t *testing.T, r Result) sweepResult {
	t.Helper()
	data, err := r.Cert.Marshal()
	if err != nil {
		t.Errorf("marshal certificate: %v", err)
	}
	return sweepResult{related: r.Related, pairs: r.Pairs, reason: r.Reason, cert: string(data)}
}

// TestSharedStoreConcurrentSweep runs the Theorem 1 pair sweep, certified,
// across 8 goroutines sharing one checker (hence one term store, with its
// memoised transitions, barbs and output targets). The sample repeats some
// pairs, and the sweep adds five pairs of distinct sample terms in both
// orientations, so identical and swapped queries race on the same terms.
// The checker keeps no verdicts, so every query runs the engine, and each
// must equal, in verdict, pair count, Reason and certificate bytes, the
// same query run sequentially on a fresh checker over one store. Exercised
// by `go test -race ./internal/equiv/...`.
func TestSharedStoreConcurrentSweep(t *testing.T) {
	pairs := samplePairs(25)
	for i := 0; i < 5; i++ {
		p, q := pairs[i][0], pairs[i+10][0]
		pairs = append(pairs, [2]syntax.Proc{p, q}, [2]syntax.Proc{q, p})
	}
	jobs := len(pairs) * len(relations)

	// Sequential baseline: every query on one store, each on a fresh
	// checker.
	store := NewStore(nil)
	want := make([]sweepResult, jobs)
	for job := range want {
		pair, rel := pairs[job/len(relations)], relations[job%len(relations)]
		seq := NewCheckerWithStore(store)
		seq.Certify = true
		r, err := seq.Decide(context.Background(), Query{Rel: rel.rel, Weak: rel.weak, P: pair[0], Q: pair[1]})
		if err != nil {
			t.Fatalf("sequential pair %d %s: %v", job/len(relations), spec{rel.rel, rel.weak}, err)
		}
		want[job] = sweepOutcome(t, r)
	}

	// 8 goroutines drain the same job list against one shared checker.
	shared := NewChecker(nil)
	shared.Certify = true
	res := make([]Result, jobs)
	errs := make([]error, jobs)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job := int(next.Add(1)) - 1
				if job >= jobs {
					return
				}
				pair := pairs[job/len(relations)]
				rel := relations[job%len(relations)]
				res[job], errs[job] = shared.Decide(context.Background(), Query{Rel: rel.rel, Weak: rel.weak, P: pair[0], Q: pair[1]})
			}
		}()
	}
	wg.Wait()
	for job := range res {
		i, rel := job/len(relations), relations[job%len(relations)]
		if errs[job] != nil {
			t.Fatalf("concurrent pair %d %s: %v", i, spec{rel.rel, rel.weak}, errs[job])
		}
		if g := sweepOutcome(t, res[job]); g != want[job] {
			t.Errorf("pair %d %s: concurrent result differs from the sequential one\n got  %+v\n want %+v",
				i, spec{rel.rel, rel.weak}, g, want[job])
		}
	}
}

// TestStoreConcurrentIntern hammers one store with identical and distinct
// terms from 8 goroutines: interning must be singleflight (one termInfo per
// canonical term) and closures and memoised output targets must agree.
func TestStoreConcurrentIntern(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(99, cfg)
	terms := make([]syntax.Proc, 32)
	for i := range terms {
		terms[i] = g.Term()
	}
	st := NewStore(nil)
	infos := make([]*termInfo, len(terms)*8)
	outs := make([][]outTarget, len(terms)*8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, p := range terms {
				ti, err := st.intern(p)
				if err != nil {
					t.Errorf("intern: %v", err)
					return
				}
				for _, k := range []moveKind{kindTau, kindStep} {
					if _, err := st.closure(ti, k, 2048); err != nil {
						t.Errorf("%s closure: %v", k, err)
						return
					}
				}
				var o []outTarget
				if err := st.eachOutput(ti, ti.freeNames(), func(ot outTarget) error {
					o = append(o, ot)
					return nil
				}); err != nil {
					t.Errorf("eachOutput: %v", err)
					return
				}
				infos[w*len(terms)+i], outs[w*len(terms)+i] = ti, o
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for w := 1; w < 8; w++ {
		for i := range terms {
			if infos[i] != infos[w*len(terms)+i] {
				t.Fatalf("term %d interned to distinct infos across goroutines", i)
			}
			if !slices.Equal(outs[i], outs[w*len(terms)+i]) {
				t.Fatalf("term %d: output targets differ across goroutines", i)
			}
		}
	}
}
