package equiv

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	d names.Name = "d"
	x names.Name = "x"
	y names.Name = "y"
	z names.Name = "z"
)

func newC() *Checker { return NewChecker(nil) }

// verdict helpers -----------------------------------------------------------

// related decides rel between p and q on ch, failing the test on an error.
func related(t *testing.T, ch *Checker, rel string, p, q syntax.Proc, weak bool) bool {
	t.Helper()
	r, err := ch.Decide(context.Background(), Query{Rel: rel, Weak: weak, P: p, Q: q})
	if err != nil {
		t.Fatalf("%s(%s, %s): %v", rel, syntax.String(p), syntax.String(q), err)
	}
	return r.Related
}

// ---- Lemmas 2, 4, 6: the structural laws (a)–(l) ---------------------------

// lawInstances returns concrete (p, q) pairs instantiating laws (b)–(l).
func lawInstances() [][2]syntax.Proc {
	p := syntax.Send(a, []names.Name{b}, syntax.RecvN(c, x)) // āb.c(x)
	q := syntax.TauP(syntax.SendN(b))                        // τ.b̄
	r := syntax.RecvN(a, y)                                  // a(y)
	nop := syntax.PNil
	return [][2]syntax.Proc{
		{syntax.Group(p, nop), p},                                                              // (b) p‖nil = p
		{syntax.Group(p, q), syntax.Group(q, p)},                                               // (c) commutativity ‖
		{syntax.Group(syntax.Group(p, q), r), syntax.Group(p, syntax.Group(q, r))},             // (d) assoc ‖
		{syntax.Choice(p, nop), p},                                                             // (e) p+nil = p
		{syntax.Choice(p, q), syntax.Choice(q, p)},                                             // (f) commutativity +
		{syntax.Choice(syntax.Choice(p, q), r), syntax.Choice(p, syntax.Choice(q, r))},         // (g) assoc +
		{syntax.Restrict(p, z), p},                                                             // (h) νz p = p, z ∉ fn(p)
		{syntax.Restrict(syntax.SendN(x, y), y, x), syntax.Restrict(syntax.SendN(x, y), x, y)}, // (i) νxνy = νyνx
		{syntax.Group(syntax.Restrict(syntax.SendN(x, a), x), q),
			syntax.Restrict(syntax.Group(syntax.SendN(x, a), q), x)}, // (j) scope extension ‖
		{syntax.Choice(syntax.Restrict(syntax.SendN(x, a), x), q),
			syntax.Restrict(syntax.Choice(syntax.SendN(x, a), q), x)}, // (k) scope extension +
		{syntax.If(b, c, syntax.Restrict(syntax.SendN(x, a), x), q),
			syntax.Restrict(syntax.If(b, c, syntax.SendN(x, a), q), x)}, // (l) scope extension match
	}
}

func TestLemma6LabelledLaws(t *testing.T) {
	ch := newC()
	for i, pq := range lawInstances() {
		if !related(t, ch, cert.RelLabelled, pq[0], pq[1], false) {
			t.Errorf("law %c: %s ~ %s failed", 'b'+rune(i), syntax.String(pq[0]), syntax.String(pq[1]))
		}
	}
}

func TestLemma2BarbedLaws(t *testing.T) {
	ch := newC()
	for i, pq := range lawInstances() {
		if !related(t, ch, cert.RelBarbed, pq[0], pq[1], false) {
			t.Errorf("law %c: %s ~b %s failed", 'b'+rune(i), syntax.String(pq[0]), syntax.String(pq[1]))
		}
	}
}

func TestLemma4StepLaws(t *testing.T) {
	ch := newC()
	for i, pq := range lawInstances() {
		if !related(t, ch, cert.RelStep, pq[0], pq[1], false) {
			t.Errorf("law %c: %s ~φ %s failed", 'b'+rune(i), syntax.String(pq[0]), syntax.String(pq[1]))
		}
	}
}

func TestAlphaConversionLawA(t *testing.T) {
	// (a): p =α q implies equivalence, all three relations.
	ch := newC()
	p := syntax.Recv(a, []names.Name{x}, syntax.SendN(x))
	q := syntax.Recv(a, []names.Name{y}, syntax.SendN(y))
	if !related(t, ch, cert.RelLabelled, p, q, false) || !related(t, ch, cert.RelBarbed, p, q, false) || !related(t, ch, cert.RelStep, p, q, false) {
		t.Error("alpha-equivalent terms must be related by every relation")
	}
}

// ---- Remark 1: ~b is not preserved by restriction --------------------------

func TestRemark1(t *testing.T) {
	ch := newC()
	p0 := syntax.SendN(a, b)
	q0 := syntax.Send(a, []names.Name{b}, syntax.SendN(c, d))
	if !related(t, ch, cert.RelBarbed, p0, q0, false) {
		t.Error("p0 ~b q0 expected (both only barb on a, no τ)")
	}
	np0 := syntax.Restrict(p0, a)
	nq0 := syntax.Restrict(q0, a)
	if related(t, ch, cert.RelBarbed, np0, nq0, false) {
		t.Error("νa p0 ≁b νa q0 expected (rule 6 reveals the difference)")
	}
	// The same pair also separates ~φ without any restriction: the step
	// relation follows outputs.
	if related(t, ch, cert.RelStep, p0, q0, false) {
		t.Error("p0 ≁φ q0 expected")
	}
	// And labelled bisimilarity distinguishes them directly.
	if related(t, ch, cert.RelLabelled, p0, q0, false) {
		t.Error("p0 ≁ q0 expected")
	}
}

// ---- Remark 2: ~φ is not preserved by ‖ nor by ν; ~b and ~φ incomparable ---

func TestRemark2StepNotPreservedByParallel(t *testing.T) {
	ch := newC()
	// p1 = b̄ + τ.c̄, q1 = b̄ + b̄.c̄, r1 = b + ā.
	p1 := syntax.Choice(syntax.SendN(b), syntax.TauP(syntax.SendN(c)))
	q1 := syntax.Choice(syntax.SendN(b), syntax.Send(b, nil, syntax.SendN(c)))
	r1 := syntax.Choice(syntax.RecvN(b), syntax.SendN(a))
	if !related(t, ch, cert.RelStep, p1, q1, false) {
		t.Fatal("p1 ~φ q1 expected")
	}
	if related(t, ch, cert.RelStep, syntax.Group(p1, r1), syntax.Group(q1, r1), false) {
		t.Error("p1‖r1 ≁φ q1‖r1 expected")
	}
	// The same witness shows ~φ ⊄ ~b: p1 has a τ that q1 cannot answer.
	if related(t, ch, cert.RelBarbed, p1, q1, false) {
		t.Error("p1 ≁b q1 expected")
	}
}

func TestRemark2StepNotPreservedByRestriction(t *testing.T) {
	ch := newC()
	// p2 = b̄a.ā, q2 = b̄c.ā.
	p2 := syntax.Send(b, []names.Name{a}, syntax.SendN(a))
	q2 := syntax.Send(b, []names.Name{c}, syntax.SendN(a))
	if !related(t, ch, cert.RelStep, p2, q2, false) {
		t.Fatal("p2 ~φ q2 expected (steps are label-blind)")
	}
	np2 := syntax.Restrict(p2, a)
	nq2 := syntax.Restrict(q2, a)
	if related(t, ch, cert.RelStep, np2, nq2, false) {
		t.Error("νa p2 ≁φ νa q2 expected")
	}
	// ~b ⊄ ~φ: the restricted pair is still strongly barbed bisimilar.
	if !related(t, ch, cert.RelBarbed, np2, nq2, false) {
		t.Error("νa p2 ~b νa q2 expected")
	}
}

// ---- Noisy inputs: the signature law of broadcast bisimilarity -------------

func TestNoisyInputLaw(t *testing.T) {
	ch := newC()
	// Input prefixes with inert continuations are invisible: a ~ b.
	pa := syntax.RecvN(a)
	pb := syntax.RecvN(b)
	if !related(t, ch, cert.RelLabelled, pa, pb, false) {
		t.Error("a ~ b expected for input prefixes (noisy clause)")
	}
	// Outputs are visible: ā ≁ b̄.
	if related(t, ch, cert.RelLabelled, syntax.SendN(a), syntax.SendN(b), false) {
		t.Error("ā ≁ b̄ expected")
	}
	// An input that changes observable behaviour is visible:
	// a(x).x̄ ≁ b(x).x̄.
	if related(t, ch, cert.RelLabelled, syntax.Recv(a, []names.Name{x}, syntax.SendN(x)),
		syntax.Recv(b, []names.Name{x}, syntax.SendN(x)), false) {
		t.Error("a(x).x̄ ≁ b(x).x̄ expected")
	}
}

// ---- Remark 3: ~ is not preserved by choice or substitution ----------------

func TestRemark3ChoiceNotPreserved(t *testing.T) {
	ch := newC()
	pa := syntax.RecvN(a)
	pb := syntax.RecvN(b)
	if !related(t, ch, cert.RelLabelled, pa, pb, false) {
		t.Fatal("precondition a ~ b failed")
	}
	ctx := syntax.SendN(c)
	if related(t, ch, cert.RelLabelled, syntax.Choice(pa, ctx), syntax.Choice(pb, ctx), false) {
		t.Error("a+c̄ ≁ b+c̄ expected: receiving on a kills the c̄ branch only on the left")
	}
}

func TestRemark3SubstitutionNotPreserved(t *testing.T) {
	ch := newC()
	// Expansion pair: p = x.y.c̄ + y.(x ‖ c̄), q = x ‖ y.c̄ (x, y inputs).
	p := syntax.Choice(
		syntax.Recv(x, nil, syntax.Recv(y, nil, syntax.SendN(c))),
		syntax.Recv(y, nil, syntax.Group(syntax.RecvN(x), syntax.SendN(c))),
	)
	q := syntax.Group(syntax.RecvN(x), syntax.Recv(y, nil, syntax.SendN(c)))
	if !related(t, ch, cert.RelLabelled, p, q, false) {
		t.Fatal("expansion law instance p ~ q failed")
	}
	// Under [x/y] the broadcast reaches both components of q at once.
	sub := names.Single(y, x)
	if related(t, ch, cert.RelLabelled, syntax.Apply(p, sub), syntax.Apply(q, sub), false) {
		t.Error("p[x/y] ≁ q[x/y] expected: joint reception distinguishes them")
	}
	// Consequently p and q are not congruent, though bisimilar.
	if related(t, ch, cert.RelCongruence, p, q, false) {
		t.Error("p ≁c q expected")
	}
}

// ---- Lemmas 8 and 9: ~ preserved by ν and ‖ --------------------------------

func TestLemma9ParallelPreservation(t *testing.T) {
	ch := newC()
	pa := syntax.RecvN(a)
	pb := syntax.RecvN(b)
	contexts := []syntax.Proc{
		syntax.SendN(c),
		syntax.TauP(syntax.SendN(d)),
		syntax.Recv(c, []names.Name{z}, syntax.SendN(z)),
	}
	for _, r := range contexts {
		if !related(t, ch, cert.RelLabelled, syntax.Group(pa, r), syntax.Group(pb, r), false) {
			t.Errorf("~ not preserved by ‖ with r = %s", syntax.String(r))
		}
	}
}

func TestLemma8RestrictionPreservation(t *testing.T) {
	ch := newC()
	pa := syntax.RecvN(a)
	pb := syntax.RecvN(b)
	if !related(t, ch, cert.RelLabelled, syntax.Restrict(pa, c), syntax.Restrict(pb, c), false) {
		t.Error("~ not preserved by restriction")
	}
	// A case where the restricted name occurs: νa(a) ~ νa(b)? The left
	// becomes inert (private input), the right still listens on b publicly —
	// and by noisiness both are ~ anyway.
	if !related(t, ch, cert.RelLabelled, syntax.Restrict(pa, a), syntax.Restrict(pb, a), false) {
		t.Error("expected νa.a ~ νa.b (both noisy-inert)")
	}
}

// ---- Lemmas 10 and 11: ~ implies ~b and ~φ ---------------------------------

func TestLabelledImpliesBarbedAndStep(t *testing.T) {
	ch := newC()
	pairs := lawInstances()
	pairs = append(pairs, [2]syntax.Proc{syntax.RecvN(a), syntax.RecvN(b)})
	for _, pq := range pairs {
		if !related(t, ch, cert.RelLabelled, pq[0], pq[1], false) {
			continue
		}
		if !related(t, ch, cert.RelBarbed, pq[0], pq[1], false) {
			t.Errorf("Lemma 10 violated: %s ~ %s but not ~b", syntax.String(pq[0]), syntax.String(pq[1]))
		}
		if !related(t, ch, cert.RelStep, pq[0], pq[1], false) {
			t.Errorf("Lemma 11 violated: %s ~ %s but not ~φ", syntax.String(pq[0]), syntax.String(pq[1]))
		}
	}
}

// ---- Section 6: bisimulation strictness example ----------------------------

func TestOutputChoiceDistribution(t *testing.T) {
	ch := newC()
	// ā.(b̄+c̄) and ā.b̄+ā.c̄ are not (even weakly) bisimilar — discussed in
	// the paper's conclusion as a possible over-discrimination of
	// bisimulation vis-à-vis testing preorders.
	p := syntax.Send(a, nil, syntax.Choice(syntax.SendN(b), syntax.SendN(c)))
	q := syntax.Choice(syntax.Send(a, nil, syntax.SendN(b)), syntax.Send(a, nil, syntax.SendN(c)))
	if related(t, ch, cert.RelLabelled, p, q, false) {
		t.Error("ā.(b̄+c̄) ≁ ā.b̄+ā.c̄ expected")
	}
	if related(t, ch, cert.RelLabelled, p, q, true) {
		t.Error("ā.(b̄+c̄) ≉ ā.b̄+ā.c̄ expected")
	}
}

// ---- Remark 4: ~c ⊊ ~+ ⊊ ~ --------------------------------------------------

func TestRemark4Strictness(t *testing.T) {
	ch := newC()
	// Second inclusion strict: a ~ b (inputs) but a ≁+ b (discard sets differ).
	pa := syntax.RecvN(a)
	pb := syntax.RecvN(b)
	if !related(t, ch, cert.RelLabelled, pa, pb, false) {
		t.Fatal("a ~ b precondition failed")
	}
	if related(t, ch, cert.RelOneStep, pa, pb, false) {
		t.Error("a ≁+ b expected (b discards a, a does not)")
	}
	// First inclusion strict: the expansion pair is ~+ but not ~c.
	p := syntax.Choice(
		syntax.Recv(x, nil, syntax.Recv(y, nil, syntax.SendN(c))),
		syntax.Recv(y, nil, syntax.Group(syntax.RecvN(x), syntax.SendN(c))),
	)
	q := syntax.Group(syntax.RecvN(x), syntax.Recv(y, nil, syntax.SendN(c)))
	if !related(t, ch, cert.RelOneStep, p, q, false) {
		t.Error("expansion pair should be ~+ related")
	}
	if related(t, ch, cert.RelCongruence, p, q, false) {
		t.Error("expansion pair must not be ~c related")
	}
}

// ---- Axiom (H): the noisy saturation law ------------------------------------

func TestAxiomHSoundness(t *testing.T) {
	ch := newC()
	// ā.c̄ ~c ā.(c̄ + a(x).c̄): the added input is inoffensive because the
	// continuation discards a and x is not free in it.
	lhs := syntax.Send(a, nil, syntax.SendN(c))
	rhs := syntax.Send(a, nil, syntax.Choice(syntax.SendN(c), syntax.Recv(a, []names.Name{x}, syntax.SendN(c))))
	if !related(t, ch, cert.RelCongruence, lhs, rhs, false) {
		t.Error("axiom (H) instance must be ~c")
	}
	// Without the (H) side condition — continuation listening on a — the
	// equation fails: ā.a(y).c̄ vs ā.(a(y).c̄ + a(x).a(y).c̄).
	lhs2 := syntax.Send(a, nil, syntax.Recv(a, []names.Name{y}, syntax.SendN(c)))
	rhs2 := syntax.Send(a, nil, syntax.Choice(
		syntax.Recv(a, []names.Name{y}, syntax.SendN(c)),
		syntax.Recv(a, []names.Name{x}, syntax.Recv(a, []names.Name{y}, syntax.SendN(c)))))
	if related(t, ch, cert.RelCongruence, lhs2, rhs2, false) {
		t.Error("violating (H)'s side condition must break the equation")
	}
}

// ---- Weak relations ----------------------------------------------------------

func TestWeakBasics(t *testing.T) {
	ch := newC()
	p := syntax.TauP(syntax.SendN(c))
	q := syntax.SendN(c)
	if !related(t, ch, cert.RelLabelled, p, q, true) {
		t.Error("τ.c̄ ≈ c̄ expected")
	}
	if related(t, ch, cert.RelLabelled, p, q, false) {
		t.Error("τ.c̄ ≁ c̄ expected")
	}
	if !related(t, ch, cert.RelBarbed, p, q, true) {
		t.Error("τ.c̄ ≈b c̄ expected")
	}
	if !related(t, ch, cert.RelStep, p, q, true) {
		t.Error("τ.c̄ ≈φ c̄ expected")
	}
	// τ.τ.p ≈ τ.p ≈ p
	if !related(t, ch, cert.RelLabelled, syntax.TauP(p), q, true) {
		t.Error("τ.τ.c̄ ≈ c̄ expected")
	}
}

func TestWeakCongruenceTauLaw(t *testing.T) {
	ch := newC()
	// τ.c̄ ≉+ c̄ (a τ must be answered by at least one τ), hence ≉c; this is
	// what keeps ≈c preserved by +.
	p := syntax.TauP(syntax.SendN(c))
	q := syntax.SendN(c)
	if related(t, ch, cert.RelOneStep, p, q, true) {
		t.Error("τ.c̄ ≉+ c̄ expected")
	}
	// But ā.τ.c̄ ≈c ā.c̄ (τ under a prefix is absorbed).
	lp := syntax.Send(a, nil, p)
	lq := syntax.Send(a, nil, q)
	if !related(t, ch, cert.RelCongruence, lp, lq, true) {
		t.Error("ā.τ.c̄ ≈c ā.c̄ expected")
	}
	// The + context genuinely distinguishes τ.c̄ from c̄.
	if related(t, ch, cert.RelLabelled, syntax.Choice(p, syntax.SendN(d)), syntax.Choice(q, syntax.SendN(d)), true) {
		t.Error("τ.c̄+d̄ ≉ c̄+d̄ expected")
	}
}

// ---- Congruence positive cases ----------------------------------------------

func TestCongruencePositive(t *testing.T) {
	ch := newC()
	p := syntax.Send(a, []names.Name{b}, syntax.RecvN(c, x))
	cases := [][2]syntax.Proc{
		{syntax.Choice(p, p), p},                 // S2
		{syntax.Choice(p, syntax.PNil), p},       // S1
		{syntax.Group(p, syntax.PNil), p},        // P1
		{syntax.Restrict(p, z), p},               // unused restriction
		{syntax.If(a, a, p, syntax.SendN(d)), p}, // match true
	}
	for i, pq := range cases {
		if !related(t, ch, cert.RelCongruence, pq[0], pq[1], false) {
			t.Errorf("case %d: %s ~c %s expected", i, syntax.String(pq[0]), syntax.String(pq[1]))
		}
	}
	// Match with distinct free names is NOT congruent to its else-branch
	// unconditionally… unless the else IS the branch: (a=b)p,q ~c q only if
	// fusing a,b keeps them equal — here it fails:
	if related(t, ch, cert.RelCongruence, syntax.If(a, b, p, syntax.SendN(d)), syntax.SendN(d), false) {
		t.Error("(a=b)p,d̄ ≁c d̄ expected (σ fusing a,b exposes p)")
	}
	// But it is strongly bisimilar (identity substitution only).
	if !related(t, ch, cert.RelLabelled, syntax.If(a, b, p, syntax.SendN(d)), syntax.SendN(d), false) {
		t.Error("(a=b)p,d̄ ~ d̄ expected")
	}
}

// ---- Budget handling ---------------------------------------------------------

func TestBudgetError(t *testing.T) {
	ch := newC()
	ch.MaxPairs = 2
	p := syntax.Send(a, nil, syntax.Send(b, nil, syntax.Send(c, nil, syntax.SendN(d))))
	q := syntax.Send(a, nil, syntax.Send(b, nil, syntax.Send(c, nil, syntax.SendN(d, d))))
	if _, err := ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q}); err == nil {
		t.Error("expected budget error")
	} else if _, ok := err.(ErrBudget); !ok {
		t.Errorf("wrong error type: %v", err)
	}
}
