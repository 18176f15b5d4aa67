package refine

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/names"
	brand "bpi/internal/rand"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func graphFor(t *testing.T, p, q syntax.Proc) *lts.Graph {
	t.Helper()
	g, err := lts.Explore(semantics.NewSystem(nil), []syntax.Proc{p, q},
		lts.Options{AutonomousOnly: true, MaxStates: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestStrongStepKnownPairs(t *testing.T) {
	a, b, c := names.Name("a"), names.Name("b"), names.Name("c")
	cases := []struct {
		name string
		p, q syntax.Proc
		want bool
	}{
		{"identical", syntax.SendN(a), syntax.SendN(a), true},
		{"different-barbs", syntax.SendN(a), syntax.SendN(b), false},
		{"remark2-step-pair",
			syntax.Choice(syntax.SendN(b), syntax.TauP(syntax.SendN(c))),
			syntax.Choice(syntax.SendN(b), syntax.Send(b, nil, syntax.SendN(c))),
			true},
		{"remark1-pair",
			syntax.SendN(a, b),
			syntax.Send(a, []names.Name{b}, syntax.SendN(c, "d")),
			false},
		{"commuted-components",
			syntax.Group(syntax.Send(a, nil, syntax.SendN(b)), syntax.Recv(a, nil, syntax.SendN(c)), syntax.TauP(syntax.RecvN(b))),
			syntax.Group(syntax.TauP(syntax.RecvN(b)), syntax.Send(a, nil, syntax.SendN(b)), syntax.Recv(a, nil, syntax.SendN(c))),
			true},
	}
	for _, cse := range cases {
		g := graphFor(t, cse.p, cse.q)
		got, err := StrongStep(g)
		if err != nil {
			t.Fatalf("%s: %v", cse.name, err)
		}
		if got != cse.want {
			t.Errorf("%s: refine says %v, want %v", cse.name, got, cse.want)
		}
	}
}

func TestStrongBarbedKnownPairs(t *testing.T) {
	a, b, c, d := names.Name("a"), names.Name("b"), names.Name("c"), names.Name("d")
	p0 := syntax.SendN(a, b)
	q0 := syntax.Send(a, []names.Name{b}, syntax.SendN(c, d))
	g := graphFor(t, p0, q0)
	got, err := StrongBarbed(g)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("Remark 1: p0 ~b q0 expected from the refinement engine")
	}
	// And restricted they differ.
	g2 := graphFor(t, syntax.Restrict(p0, a), syntax.Restrict(q0, a))
	got, err = StrongBarbed(g2)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("Remark 1 restricted: ≁b expected from the refinement engine")
	}
}

// Cross-validation: the refinement engine and the on-the-fly pair engine
// agree on random pairs for both autonomous relations.
func TestCrossValidationWithPairEngine(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(808, cfg)
	ch := equiv.NewChecker(nil)
	agree, related := 0, 0
	for i := 0; i < 40; i++ {
		p := g.Term()
		q := g.Mutate(p)
		gr := graphFor(t, p, q)

		stepRef, err := StrongStep(gr)
		if err != nil {
			t.Fatal(err)
		}
		stepPair, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if stepRef != stepPair.Related {
			t.Errorf("pair %d STEP disagreement (refine=%v, pair=%v):\n p=%s\n q=%s",
				i, stepRef, stepPair.Related, syntax.String(p), syntax.String(q))
			continue
		}
		barbRef, err := StrongBarbed(gr)
		if err != nil {
			t.Fatal(err)
		}
		barbPair, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelBarbed, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if barbRef != barbPair.Related {
			t.Errorf("pair %d BARBED disagreement (refine=%v, pair=%v):\n p=%s\n q=%s",
				i, barbRef, barbPair.Related, syntax.String(p), syntax.String(q))
			continue
		}
		agree++
		if stepRef || barbRef {
			related++
		}
	}
	if related == 0 {
		t.Fatal("no related pairs sampled")
	}
	t.Logf("engines agree on %d pairs (%d related)", agree, related)
}

func TestRefineRejectsTruncated(t *testing.T) {
	// A growing process truncates the graph; the verdict must be refused.
	x := names.Name("x")
	grow := syntax.Rec{Id: "A", Params: []names.Name{x},
		Body: syntax.TauP(syntax.Group(syntax.SendN(x), syntax.Call{Id: "A", Args: []names.Name{x}})),
		Args: []names.Name{"a"}}
	g, err := lts.Explore(semantics.NewSystem(nil), []syntax.Proc{grow, grow},
		lts.Options{AutonomousOnly: true, MaxStates: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Truncated {
		t.Fatal("expected truncation")
	}
	if _, err := StrongStep(g); err == nil {
		t.Error("truncated graph accepted")
	}
	if _, err := StrongBarbed(g); err == nil {
		t.Error("truncated graph accepted")
	}
}

func TestWeakKnownPairs(t *testing.T) {
	a, c, d := names.Name("a"), names.Name("c"), names.Name("d")
	// τ.τ.ā ≈φ ≈b ā.
	p := syntax.TauP(syntax.TauP(syntax.SendN(a)))
	q := syntax.SendN(a)
	g := graphFor(t, p, q)
	if got, err := WeakStep(g); err != nil || !got {
		t.Fatalf("weak step on τ-prefix: %v %v", got, err)
	}
	if got, err := WeakBarbed(g); err != nil || !got {
		t.Fatalf("weak barbed on τ-prefix: %v %v", got, err)
	}
	// τ.c̄ vs d̄: different weak barbs.
	g2 := graphFor(t, syntax.TauP(syntax.SendN(c)), syntax.SendN(d))
	if got, err := WeakBarbed(g2); err != nil || got {
		t.Fatalf("weak barbed must separate c̄/d̄: %v %v", got, err)
	}
}

// Cross-validation of the weak relations between the two engines.
func TestWeakCrossValidation(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(909, cfg)
	ch := equiv.NewChecker(nil)
	related := 0
	for i := 0; i < 30; i++ {
		p := g.Term()
		q := g.Mutate(p)
		gr := graphFor(t, p, q)
		wsRef, err := WeakStep(gr)
		if err != nil {
			t.Fatal(err)
		}
		wsPair, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, Weak: true, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if wsRef != wsPair.Related {
			t.Errorf("pair %d WEAK STEP disagreement (refine=%v, pair=%v):\n p=%s\n q=%s",
				i, wsRef, wsPair.Related, syntax.String(p), syntax.String(q))
		}
		wbRef, err := WeakBarbed(gr)
		if err != nil {
			t.Fatal(err)
		}
		wbPair, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelBarbed, Weak: true, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		if wbRef != wbPair.Related {
			t.Errorf("pair %d WEAK BARBED disagreement (refine=%v, pair=%v):\n p=%s\n q=%s",
				i, wbRef, wbPair.Related, syntax.String(p), syntax.String(q))
		}
		if wsRef || wbRef {
			related++
		}
	}
	if related == 0 {
		t.Fatal("no weakly related pairs sampled")
	}
}
