package equiv

import (
	"sync"
	"sync/atomic"
	"testing"

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
	name string
	run  func(ch *Checker, p, q syntax.Proc) (Result, error)
}{
	{"labelled/strong", func(ch *Checker, p, q syntax.Proc) (Result, error) { return ch.Labelled(p, q, false) }},
	{"labelled/weak", func(ch *Checker, p, q syntax.Proc) (Result, error) { return ch.Labelled(p, q, true) }},
	{"barbed/strong", func(ch *Checker, p, q syntax.Proc) (Result, error) { return ch.Barbed(p, q, false) }},
	{"barbed/weak", func(ch *Checker, p, q syntax.Proc) (Result, error) { return ch.Barbed(p, q, true) }},
	{"step/strong", func(ch *Checker, p, q syntax.Proc) (Result, error) { return ch.Step(p, q, false) }},
	{"step/weak", func(ch *Checker, p, q syntax.Proc) (Result, error) { return ch.Step(p, q, true) }},
}

// TestSharedStoreConcurrentSweep runs the Theorem 1 pair sweep across 8
// goroutines sharing one checker (hence one term store) and asserts every
// verdict is identical to the sequential run. Exercised by
// `go test -race ./internal/equiv/...`.
func TestSharedStoreConcurrentSweep(t *testing.T) {
	pairs := samplePairs(25)

	// Sequential baseline.
	seq := NewChecker(nil)
	want := make([]bool, len(pairs)*len(relations))
	for i, pair := range pairs {
		for j, rel := range relations {
			r, err := rel.run(seq, pair[0], pair[1])
			if err != nil {
				t.Fatalf("sequential pair %d %s: %v", i, rel.name, err)
			}
			want[i*len(relations)+j] = r.Related
		}
	}

	// 8 goroutines drain the same job list against one shared checker.
	shared := NewChecker(nil)
	got := make([]bool, len(want))
	errs := make([]error, len(want))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				job := int(next.Add(1)) - 1
				if job >= len(want) {
					return
				}
				pair := pairs[job/len(relations)]
				rel := relations[job%len(relations)]
				r, err := rel.run(shared, pair[0], pair[1])
				got[job], errs[job] = r.Related, err
			}
		}()
	}
	wg.Wait()
	for job := range want {
		i, rel := job/len(relations), relations[job%len(relations)]
		if errs[job] != nil {
			t.Fatalf("concurrent pair %d %s: %v", i, rel.name, errs[job])
		}
		if got[job] != want[job] {
			t.Errorf("pair %d %s: concurrent verdict %v, sequential %v", i, rel.name, got[job], want[job])
		}
	}
}

// TestStoreConcurrentIntern hammers one store with identical and distinct
// terms from 8 goroutines: interning must be singleflight (one termInfo per
// canonical term) and closures must agree.
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
				if _, err := st.tauClosure(ti, 2048); err != nil {
					t.Errorf("tauClosure: %v", err)
					return
				}
				if _, err := st.autonomousClosure(ti, 2048); err != nil {
					t.Errorf("autonomousClosure: %v", err)
					return
				}
				infos[w*len(terms)+i] = ti
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
		}
	}
}
