package equiv

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/names"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// TestTheorem1Implications samples random finite pairs and checks the
// inclusion half of Theorem 1 mechanically: labelled bisimilarity implies
// barbed bisimilarity (Lemma 10) and step bisimilarity (Lemma 11), in the
// strong and the weak case, plus the chain ~c ⊆ ~+ ⊆ ~.
func TestTheorem1Implications(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(12345, cfg)
	ch := newC()
	nRelated, checked := 0, 0
	for i := 0; i < 60; i++ {
		p := g.Term()
		q := g.Mutate(p)
		checked++
		for _, weak := range []bool{false, true} {
			lab := related(t, ch, cert.RelLabelled, p, q, weak)
			if !lab {
				continue
			}
			nRelated++
			if !related(t, ch, cert.RelBarbed, p, q, weak) {
				t.Errorf("seeded pair %d (weak=%v): labelled but not barbed:\n p=%s\n q=%s",
					i, weak, syntax.String(p), syntax.String(q))
			}
			if !related(t, ch, cert.RelStep, p, q, weak) {
				t.Errorf("seeded pair %d (weak=%v): labelled but not step:\n p=%s\n q=%s",
					i, weak, syntax.String(p), syntax.String(q))
			}
		}
		// Chain ~c ⊆ ~+ ⊆ ~ on the strong side.
		if cgr := congruentQuiet(t, ch, p, q); cgr {
			if !related(t, ch, cert.RelOneStep, p, q, false) {
				t.Errorf("pair %d: ~c but not ~+:\n p=%s\n q=%s", i, syntax.String(p), syntax.String(q))
			}
		}
		if os := related(t, ch, cert.RelOneStep, p, q, false); os {
			if !related(t, ch, cert.RelLabelled, p, q, false) {
				t.Errorf("pair %d: ~+ but not ~:\n p=%s\n q=%s", i, syntax.String(p), syntax.String(q))
			}
		}
	}
	if nRelated == 0 {
		t.Fatal("sampling produced no related pairs — mutation mix is broken")
	}
	t.Logf("checked %d pairs, %d related verdicts", checked, nRelated)
}

func congruentQuiet(t *testing.T, ch *Checker, p, q syntax.Proc) bool {
	t.Helper()
	r, err := ch.Decide(context.Background(), Query{Rel: cert.RelCongruence, P: p, Q: q, MaxSubs: 64})
	if err != nil {
		t.Fatalf("congruence: %v", err)
	}
	return r.Related
}

// TestSimplifySemanticSoundness: Simplify must preserve the strong labelled
// bisimilarity class, the discard relation, and one-step matching (~+) of
// every random term. (It need NOT preserve ~c: stable-match elimination is
// only valid after all substitutions have been applied, which is why the
// congruence checkers substitute before simplifying.)
func TestSimplifySemanticSoundness(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(999, cfg)
	ch := newC()
	sys := ch.Store().System()
	for i := 0; i < 40; i++ {
		p := g.Term()
		s := syntax.Simplify(p)
		if syntax.Equal(p, s) {
			continue
		}
		if !related(t, ch, cert.RelOneStep, p, s, false) {
			t.Errorf("Simplify changed one-step behaviour of %s (got %s)", syntax.String(p), syntax.String(s))
		}
		for _, a := range syntax.FreeNames(p).Sorted() {
			dp, err := sys.Discards(p, a)
			if err != nil {
				t.Fatal(err)
			}
			ds, err := sys.Discards(s, a)
			if err != nil {
				t.Fatal(err)
			}
			if dp != ds {
				t.Errorf("Simplify changed discard on %s for %s", a, syntax.String(p))
			}
		}
	}
}

// TestInjectiveRenamingPreservesBisim (Lemma 18): p ~ q implies pρ ~ qρ for
// injective ρ.
func TestInjectiveRenamingPreservesBisim(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(777, cfg)
	ch := newC()
	ren := names.FromSlices(
		[]names.Name{"a", "b", "c"},
		[]names.Name{"b", "c", "a"}) // a permutation: injective
	found := 0
	for i := 0; i < 40 && found < 12; i++ {
		p := g.Term()
		q := g.Mutate(p)
		if !related(t, ch, cert.RelLabelled, p, q, false) {
			continue
		}
		found++
		if !related(t, ch, cert.RelLabelled, syntax.Apply(p, ren), syntax.Apply(q, ren), false) {
			t.Errorf("Lemma 18 violated on\n p=%s\n q=%s", syntax.String(p), syntax.String(q))
		}
	}
	if found == 0 {
		t.Fatal("no related pairs sampled")
	}
}

// TestStrongImpliesWeak: every strong verdict implies the weak one for all
// three relations.
func TestStrongImpliesWeak(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(31337, cfg)
	ch := newC()
	for i := 0; i < 30; i++ {
		p := g.Term()
		q := g.Mutate(p)
		if related(t, ch, cert.RelLabelled, p, q, false) && !related(t, ch, cert.RelLabelled, p, q, true) {
			t.Errorf("pair %d: strongly but not weakly labelled bisimilar", i)
		}
		if related(t, ch, cert.RelBarbed, p, q, false) && !related(t, ch, cert.RelBarbed, p, q, true) {
			t.Errorf("pair %d: strongly but not weakly barbed bisimilar", i)
		}
		if related(t, ch, cert.RelStep, p, q, false) && !related(t, ch, cert.RelStep, p, q, true) {
			t.Errorf("pair %d: strongly but not weakly step bisimilar", i)
		}
	}
}
