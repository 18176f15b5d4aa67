package equiv

import (
	"testing"

	"bpi/internal/cert"
	"bpi/internal/names"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// TestWeakWitnessVerdicts records the weak-relation behaviour of the
// strong-witness pairs: every strong verdict must persist weakly, and the
// τ-insensitive pairs gain relatedness only where expected.
func TestWeakWitnessVerdicts(t *testing.T) {
	ch := newC()
	// Remark 2(1) pair p1 = b̄+τ.c̄, q1 = b̄+b̄.c̄: weakly, the τ branch of p1
	// may be matched lazily — but the resulting states still differ (c̄ has
	// a weak barb on c that q1's post-b̄ state matches only after emitting
	// b). They stay apart even weakly under the labelled relation.
	p1 := syntax.Choice(syntax.SendN(b), syntax.TauP(syntax.SendN(c)))
	q1 := syntax.Choice(syntax.SendN(b), syntax.Send(b, nil, syntax.SendN(c)))
	if related(t, ch, cert.RelLabelled, p1, q1, true) {
		t.Error("p1 ≉ q1 expected (the τ-derivative c̄ has no weak match)")
	}
	// Weak basics across relations: τ-prefix absorption.
	p := syntax.TauP(syntax.TauP(syntax.SendN(a)))
	q := syntax.SendN(a)
	if !related(t, ch, cert.RelLabelled, p, q, true) || !related(t, ch, cert.RelBarbed, p, q, true) || !related(t, ch, cert.RelStep, p, q, true) {
		t.Error("τ.τ.ā ≈ ā must hold in every weak relation")
	}
}

// TestWeakStuckListenerSaturation table-drives the weak relations around the
// Remark 4 stuck listener G = b? | b?(x): mixed arities block both joint
// reception and joint discard on b, so G is transition-free without being 0.
// τ-saturation must treat it like any other inert state — neither inventing
// moves for it (left column) nor letting a τ prefix hide it (absorption
// rows). This is the bug class of the weak-saturation fix: the τ-closure of
// a stuck listener is just itself.
func TestWeakStuckListenerSaturation(t *testing.T) {
	G := syntax.Group(syntax.RecvN(b), syntax.RecvN(b, x))
	cases := []struct {
		name               string
		p, q               syntax.Proc
		wLab, wBarb, wStep bool
		sLab               bool
	}{
		// τ-prefix absorption around the stuck state: strongly the τ move is
		// unmatched, weakly it saturates away.
		{"tau absorption", syntax.TauP(G), G, true, true, true, false},
		{"double tau absorption", syntax.TauP(syntax.TauP(G)), syntax.TauP(G), true, true, true, false},
		// G is transition-free, so it collapses onto 0 in every relation that
		// only observes transitions and barbs — including strong labelled:
		// with no receivable shape on either side there is no react challenge.
		{"stuck is inert", G, syntax.PNil, true, true, true, true},
		{"restricted stuck is inert", syntax.Restrict(G, b), syntax.PNil, true, true, true, true},
		// A receivable listener separates: b?(x) offers the (b,1) reaction G
		// cannot answer. Barbed and step stay blind to inputs.
		{"reaction separates", G, syntax.RecvN(b, x), false, true, true, false},
		// Saturation composed with parallel: the τ neighbour fires and leaves
		// the stuck listener behind; G | 0 must then meet G.
		{"parallel tau neighbour", syntax.Group(G, syntax.TauP(syntax.PNil)), G, true, true, true, false},
		// The stuck listener discards on c, so it never blocks a broadcast
		// beside it, and the residue G | 0 is inert.
		{"broadcast past stuck", syntax.Group(G, syntax.SendN(c)), syntax.SendN(c), true, true, true, true},
		{"tau then broadcast", syntax.TauP(syntax.Group(G, syntax.SendN(c))), syntax.SendN(c), true, true, true, false},
		// Choice with a stuck summand contributes no moves: τ.G + G ~ τ.G.
		{"stuck choice summand", syntax.Choice(syntax.TauP(G), G), syntax.TauP(G), true, true, true, true},
	}
	ch := newC()
	for _, cse := range cases {
		got := map[string]bool{
			"weak labelled":   related(t, ch, cert.RelLabelled, cse.p, cse.q, true),
			"weak barbed":     related(t, ch, cert.RelBarbed, cse.p, cse.q, true),
			"weak step":       related(t, ch, cert.RelStep, cse.p, cse.q, true),
			"strong labelled": related(t, ch, cert.RelLabelled, cse.p, cse.q, false),
		}
		want := map[string]bool{
			"weak labelled":   cse.wLab,
			"weak barbed":     cse.wBarb,
			"weak step":       cse.wStep,
			"strong labelled": cse.sLab,
		}
		for rel, w := range want {
			if got[rel] != w {
				t.Errorf("%s %s = %v, want %v\n p=%s\n q=%s",
					cse.name, rel, got[rel], w,
					syntax.String(cse.p), syntax.String(cse.q))
			}
		}
	}
}

// TestWeakCongruencePreservedByContexts samples Theorem 4: pairs related by
// ≈c stay weakly bisimilar under prefix, choice, parallel and restriction
// contexts.
func TestWeakCongruencePreservedByContexts(t *testing.T) {
	ch := newC()
	pairs := [][2]syntax.Proc{
		{syntax.Send(a, nil, syntax.TauP(syntax.SendN(c))), syntax.Send(a, nil, syntax.SendN(c))},
		{syntax.Choice(syntax.SendN(a), syntax.SendN(a)), syntax.SendN(a)},
		{syntax.Group(syntax.RecvN(c, x), syntax.PNil), syntax.RecvN(c, x)},
	}
	contexts := []func(syntax.Proc) syntax.Proc{
		func(p syntax.Proc) syntax.Proc { return syntax.Send(d, nil, p) },
		func(p syntax.Proc) syntax.Proc { return syntax.Choice(p, syntax.SendN(d)) },
		func(p syntax.Proc) syntax.Proc { return syntax.Group(p, syntax.RecvN(d, z)) },
		func(p syntax.Proc) syntax.Proc { return syntax.Restrict(p, "w") },
		func(p syntax.Proc) syntax.Proc { return syntax.If(a, b, p, syntax.SendN(d)) },
	}
	for i, pq := range pairs {
		if !related(t, ch, cert.RelCongruence, pq[0], pq[1], true) {
			t.Fatalf("pair %d not ≈c: %s vs %s", i, syntax.String(pq[0]), syntax.String(pq[1]))
		}
		for j, ctx := range contexts {
			if !related(t, ch, cert.RelLabelled, ctx(pq[0]), ctx(pq[1]), true) {
				t.Errorf("pair %d context %d: ≈c broken by context", i, j)
			}
		}
	}
}

// TestWeakCongruenceNotImpliedByWeakBisim: the τ-law pair is ≈ but not ≈c,
// and a + context indeed separates it (the content of the ≈ vs ≈c gap).
func TestWeakCongruenceNotImpliedByWeakBisim(t *testing.T) {
	ch := newC()
	p := syntax.TauP(syntax.SendN(c))
	q := syntax.SendN(c)
	if !related(t, ch, cert.RelLabelled, p, q, true) {
		t.Fatal("τ.c̄ ≈ c̄ precondition failed")
	}
	if related(t, ch, cert.RelCongruence, p, q, true) {
		t.Fatal("τ.c̄ ≈c c̄ must fail")
	}
	ctx := func(r syntax.Proc) syntax.Proc { return syntax.Choice(r, syntax.SendN(d)) }
	if related(t, ch, cert.RelLabelled, ctx(p), ctx(q), true) {
		t.Error("the + context must separate the τ-law pair")
	}
}

// TestWeakOneStepSampledSoundness: ≈+ ⊆ ≈ on random pairs (the weak analogue
// of the Remark 4 chain).
func TestWeakOneStepSampledSoundness(t *testing.T) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(5150, cfg)
	ch := newC()
	found := 0
	for i := 0; i < 25; i++ {
		p := g.Term()
		q := g.Mutate(p)
		if !related(t, ch, cert.RelOneStep, p, q, true) {
			continue
		}
		found++
		if !related(t, ch, cert.RelLabelled, p, q, true) {
			t.Errorf("≈+ pair not ≈:\n p=%s\n q=%s", syntax.String(p), syntax.String(q))
		}
	}
	if found == 0 {
		t.Skip("no ≈+ pairs sampled (generator mix)")
	}
}

// TestWeakStrongWitnessConsistency: every witness pair's weak verdicts are
// implied by (at least as permissive as) the strong ones.
func TestWeakStrongWitnessConsistency(t *testing.T) {
	ch := newC()
	pairs := [][2]syntax.Proc{
		{syntax.SendN(a, b), syntax.Send(a, []names.Name{b}, syntax.SendN(c, d))},
		{syntax.RecvN(a), syntax.RecvN(b)},
		{syntax.Choice(syntax.SendN(b), syntax.TauP(syntax.SendN(c))),
			syntax.Choice(syntax.SendN(b), syntax.Send(b, nil, syntax.SendN(c)))},
	}
	for _, rel := range []string{cert.RelLabelled, cert.RelBarbed, cert.RelStep} {
		for i, pq := range pairs {
			if related(t, ch, rel, pq[0], pq[1], false) && !related(t, ch, rel, pq[0], pq[1], true) {
				t.Errorf("%s pair %d: strong but not weak", rel, i)
			}
		}
	}
}
