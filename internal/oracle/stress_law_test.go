package oracle

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	brand "bpi/internal/rand"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// TestStressAgreeHolds drives the stress/agree law over a spread of seeds:
// every sampled topology pair must pass (the engines are believed correct,
// so any non-empty detail is a real cross-engine disagreement).
func TestStressAgreeHolds(t *testing.T) {
	law := lawStressAgree()
	env := NewEnv()
	for seed := int64(0); seed < 12; seed++ {
		g := brand.New(seed, law.Config)
		p, q, tag := law.Gen(g)
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Fatalf("seed %d (%s): engine error: %v", seed, tag, err)
		}
		if detail != "" {
			t.Errorf("seed %d (%s): %s", seed, tag, detail)
		}
	}
}

// TestStressDisagreementShrinks plants a stress-law "violation" — here the
// stand-in predicate is a negative step verdict, the shape a real engine
// disagreement on a broken rotation would have — on a mid-size gossip mesh
// and checks the shrinker minimises it to a small topology instead of
// reporting the 17-component original.
func TestStressDisagreementShrinks(t *testing.T) {
	p := stress.Mesh(8)
	parts := syntax.ParList(stress.Rotate(p))
	q := syntax.Group(parts[1:]...) // dropped a station: not step-bisimilar
	pred := func(cp, cq syntax.Proc) bool {
		r, err := stressChecker().Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: cp, Q: cq})
		return err == nil && !r.Related
	}
	if !pred(p, q) {
		t.Fatal("planted pair is not a violation — broken setup")
	}
	sp, sq, spent := ShrinkPair(p, q, pred, 0)
	if !pred(sp, sq) {
		t.Fatal("shrinker lost the violation")
	}
	before := syntax.Size(p) + syntax.Size(q)
	after := syntax.Size(sp) + syntax.Size(sq)
	if after > before/4 {
		t.Errorf("pair only shrank from %d to %d nodes in %d evals: %s / %s",
			before, after, spent, syntax.String(sp), syntax.String(sq))
	}
}
