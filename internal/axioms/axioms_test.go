package axioms

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/names"
	"bpi/internal/parser"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	x names.Name = "x"
)

// ---- Conditions and worlds ---------------------------------------------------

func TestCondEval(t *testing.T) {
	idWorld := names.Subst{}
	fused := names.Subst{a: a, b: a}
	cases := []struct {
		c    Cond
		eq   names.Subst
		want bool
	}{
		{True{}, idWorld, true},
		{Eq{a, a}, idWorld, true},
		{Eq{a, b}, idWorld, false},
		{Eq{a, b}, fused, true},
		{Neq(a, b), fused, false},
		{Conj(Eq{a, b}, Neq(a, c)), fused, true},
		{False(), idWorld, false},
	}
	for i, cs := range cases {
		if got := cs.c.Eval(cs.eq); got != cs.want {
			t.Errorf("case %d: %s under %v = %v", i, cs.c, cs.eq, got)
		}
	}
}

func TestWorldsBellNumbers(t *testing.T) {
	for _, cse := range []struct{ n, bell int }{{0, 1}, {1, 1}, {2, 2}, {3, 5}, {4, 15}} {
		v := names.NewSet()
		for i := 0; i < cse.n; i++ {
			v = v.Add(names.Name(string(rune('a' + i))))
		}
		if got := len(Worlds(v)); got != cse.bell {
			t.Errorf("Bell(%d) = %d, want %d", cse.n, got, cse.bell)
		}
	}
}

func TestWorldCondAgreesWithSubst(t *testing.T) {
	v := names.NewSet(a, b, c)
	for _, w := range Worlds(v) {
		if !w.Cond().Eval(w.Rep) {
			t.Errorf("world %s does not satisfy its own condition", w)
		}
		// And no other world satisfies it (completeness).
		for _, w2 := range Worlds(v) {
			if w2.String() != w.String() && w.Cond().Eval(w2.Rep) {
				t.Errorf("world %s satisfies the condition of %s", w2, w)
			}
		}
	}
}

func TestImplies(t *testing.T) {
	v := names.NewSet(a, b, c)
	// φ implies ψ exactly when no world satisfies φ ∧ ¬ψ.
	if Satisfiable(Conj(Eq{a, b}, Eq{b, c}, Not{Eq{a, c}}), v) {
		t.Error("transitivity implication failed")
	}
	if !Satisfiable(Conj(Eq{a, b}, Not{Eq{a, c}}), v) {
		t.Error("bogus implication accepted")
	}
	if Satisfiable(Conj(Eq{a, b}, Not{Eq{b, a}}), v) || Satisfiable(Conj(Eq{b, a}, Not{Eq{a, b}}), v) {
		t.Error("symmetry equivalence failed")
	}
	if !Satisfiable(Eq{a, b}, v) || Satisfiable(False(), v) {
		t.Error("satisfiability wrong")
	}
}

func TestCondProcCompilation(t *testing.T) {
	ch := equiv.NewChecker(nil)
	p := syntax.SendN(c)
	// ¬(a=b) p behaves as p exactly when a≠b.
	m := CondProc(Neq(a, b), p)
	r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: m, Q: p})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Related {
		t.Error("¬(a=b)c̄ should behave as c̄ for distinct a,b")
	}
	fused := syntax.Apply(m, names.Single(b, a))
	r2, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: fused, Q: syntax.PNil})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Related {
		t.Error("¬(a=a)c̄ should be inert")
	}
}

// ---- E8: soundness of every axiom (Theorem 6) -------------------------------

func TestE8AxiomSoundness(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := brand.Default()
	cfg.MaxDepth = 2
	cfg.Names = []names.Name{"a", "b"}
	g := brand.New(4242, cfg)
	for _, ax := range Catalogue() {
		checked := 0
		for trial := 0; trial < 12 && checked < 4; trial++ {
			m := Material{
				P: g.Term(), Q: g.Term(), R: g.Term(),
				A: a, B: b, C: c, X: x,
			}
			if trial%2 == 1 {
				m.B = a // also exercise fused name material
			}
			lhs, rhs, ok := ax.Inst(m)
			if !ok {
				continue
			}
			checked++
			r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: lhs, Q: rhs})
			if err != nil {
				t.Fatalf("%s: %v", ax.Name, err)
			}
			if !r.Related {
				t.Errorf("%s: unsound instance\n lhs=%s\n rhs=%s",
					ax.Name, syntax.String(lhs), syntax.String(rhs))
			}
		}
		if checked == 0 {
			t.Errorf("%s: no applicable instances generated", ax.Name)
		}
	}
}

// ---- Expansion axiom (Table 8) ----------------------------------------------

func TestExpandSoundAndParFree(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := brand.Default()
	cfg.AllowPar = false
	cfg.AllowRestriction = false
	cfg.AllowMatch = true // Expand takes guarded sums
	cfg.MaxDepth = 3
	cfg.MaxArity = -1 // the uniform-arity fragment where Table 8 applies
	g := brand.New(7, cfg)
	tried := 0
	for i := 0; i < 60 && tried < 30; i++ {
		p, q := g.Term(), g.Term()
		e, ok := Expand(p, q)
		if !ok {
			continue
		}
		tried++
		if hasPar(e) {
			// Parallels outside every prefix must be gone; nested ones under
			// prefixes remain (the axiom is applied once, not to a fixpoint).
			t.Errorf("expansion left a parallel outside a prefix: %s", syntax.String(e))
		}
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: syntax.Group(p, q), Q: e})
		if err != nil {
			t.Fatalf("congruence: %v", err)
		}
		if !r.Related {
			t.Errorf("expansion not ~c:\n p‖q = %s ‖ %s\n exp = %s",
				syntax.String(p), syntax.String(q), syntax.String(e))
		}
	}
	if tried == 0 {
		t.Fatal("no expansion instances generated")
	}
}

// hasPar reports a parallel composition outside every prefix: it walks
// sums, matches and restrictions down to the first prefix.
func hasPar(p syntax.Proc) bool {
	switch t := p.(type) {
	case syntax.Par:
		return true
	case syntax.Sum:
		return hasPar(t.L) || hasPar(t.R)
	case syntax.Match:
		return hasPar(t.Then) || hasPar(t.Else)
	case syntax.Res:
		return hasPar(t.Body)
	default:
		return false
	}
}

// TestExpanderAllocation bounds what one Expand(p, q) allocates when p and
// q have 11 free names between them. The expander decides each guard's
// satisfiability (C4) over the guard's own names; deciding it over the
// Bell(11) = 678,570 worlds of fn(p, q) for every summand allocated 14.6 GB
// in a normal-form rewrite built on this expander.
func TestExpanderAllocation(t *testing.T) {
	p, err := parser.Parse("a1!(b1).c1! + a2?(x).x! + a3!(b2) + a4?(z).z!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a1?(y).y! + a5!(b3) + a6?(w).(w! | b4!)")
	if err != nil {
		t.Fatal(err)
	}
	if n := syntax.FreeNames(p).AddAll(syntax.FreeNames(q)).Len(); n != 11 {
		t.Fatalf("fn(p, q) has %d names, want 11", n)
	}
	const limit = 16 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, ok := Expand(p, q); !ok {
		t.Fatal("Expand refused two sums of prefixes")
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > limit {
		t.Errorf("Expand(p, q) allocated %d bytes, want at most %d", n, limit)
	}
}

// ---- Head normal forms -------------------------------------------------------

func TestHNFRoundTrip(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := brand.Default()
	cfg.MaxDepth = 3
	cfg.Names = []names.Name{"a", "b"}
	g := brand.New(99, cfg)
	for i := 0; i < 12; i++ {
		p := g.Term()
		h, err := ComputeHNF(sharedSys, p, syntax.FreeNames(p))
		if err != nil {
			t.Fatalf("hnf(%s): %v", syntax.String(p), err)
		}
		back := h.ToProc()
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: p, Q: back, MaxSubs: 64})
		if err != nil {
			t.Fatalf("congruence: %v", err)
		}
		if !r.Related {
			t.Errorf("hnf round-trip not ~c:\n p   = %s\n hnf = %s",
				syntax.String(p), syntax.String(back))
		}
	}
}

func TestHNFOnRestriction(t *testing.T) {
	// νx āx.x̄b gives a bound-output summand.
	p := syntax.Restrict(syntax.Send(a, []names.Name{x}, syntax.SendN(x, b)), x)
	h, err := ComputeHNF(sharedSys, p, syntax.FreeNames(p))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ws := range h.ByWorld {
		for _, s := range ws {
			if s.Bound {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no bound-output summand in hnf of %s", syntax.String(p))
	}
}

// ---- The prover: paper witnesses --------------------------------------------

func TestDecidePaperWitnesses(t *testing.T) {
	pr := NewProver(nil)
	must := func(p, q syntax.Proc, want bool, label string) {
		t.Helper()
		got, err := pr.Decide(p, q)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != want {
			t.Errorf("%s: Decide = %v, want %v\n p=%s\n q=%s", label, got, want,
				syntax.String(p), syntax.String(q))
		}
	}
	pp := syntax.Send(a, []names.Name{b}, syntax.RecvN(c, x))
	// Positive: S-laws.
	must(syntax.Choice(pp, pp), pp, true, "S2")
	must(syntax.Choice(pp, syntax.PNil), pp, true, "S1")
	must(syntax.Group(pp, syntax.PNil), pp, true, "P1")
	// Positive: axiom (H) instance.
	lhs := syntax.Send(a, nil, syntax.SendN(c))
	rhs := syntax.Send(a, nil, syntax.Choice(syntax.SendN(c), syntax.Recv(a, []names.Name{x}, syntax.SendN(c))))
	must(lhs, rhs, true, "H")
	// Negative: inputs on different channels are not congruent.
	must(syntax.RecvN(a), syntax.RecvN(b), false, "a vs b")
	// Negative: the expansion pair under fusion (Remark 3 / Remark 4).
	p := syntax.Choice(
		syntax.Recv(x, nil, syntax.Recv("y", nil, syntax.SendN(c))),
		syntax.Recv("y", nil, syntax.Group(syntax.RecvN(x), syntax.SendN(c))),
	)
	q := syntax.Group(syntax.RecvN(x), syntax.Recv("y", nil, syntax.SendN(c)))
	must(p, q, false, "expansion pair not ~c")
	// Positive: restriction laws — νa(āb.c̄) = τ.νa c̄ = τ.c̄.
	must(syntax.Restrict(syntax.Send(a, []names.Name{b}, syntax.SendN(c)), a),
		syntax.TauP(syntax.SendN(c)), true, "RP2")
	must(syntax.Restrict(syntax.RecvN(a, x), a), syntax.PNil, true, "RP3")
}

// TestProverKeepsNoVerdicts pins that a verdict does not depend on what the
// prover decided before: a pair that needs more than 3 comparisons runs out
// of a 3-step budget on a prover that has already decided it, as on a fresh
// one.
func TestProverKeepsNoVerdicts(t *testing.T) {
	p, err := parser.Parse("a?(x).(x! | b!) + tau.(a! | b!)")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a?(y).(b! | y!) + tau.(b! | a!)")
	if err != nil {
		t.Fatal(err)
	}
	pr := NewProver(nil)
	if ok, err := pr.Decide(p, q); err != nil || !ok {
		t.Fatalf("first Decide = %v, %v; want a proof", ok, err)
	}
	fresh := NewProver(nil)
	for _, c := range []struct {
		name string
		pr   *Prover
	}{{"fresh prover", fresh}, {"prover that decided the pair", pr}} {
		c.pr.MaxSteps = 3
		ok, err := c.pr.Decide(p, q)
		var budget ErrBudget
		if !errors.As(err, &budget) {
			t.Errorf("%s with MaxSteps 3: Decide = %v, %v; want ErrBudget", c.name, ok, err)
		}
	}
}

// ---- E9: agreement of the prover with the semantic congruence ---------------

func TestE9ProverAgreesWithSemantics(t *testing.T) {
	ch := equiv.NewChecker(nil)
	pr := NewProver(nil)
	cfg := brand.Default()
	cfg.MaxDepth = 3
	cfg.Names = []names.Name{"a", "b"}
	g := brand.New(20202, cfg)
	agree, pos := 0, 0
	for i := 0; i < 40; i++ {
		p := g.Term()
		q := g.Mutate(p)
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
		if err != nil {
			t.Fatalf("semantic congruence: %v", err)
		}
		want := r.Related
		got, err := pr.Decide(p, q)
		if err != nil {
			t.Fatalf("prover: %v", err)
		}
		if got != want {
			t.Errorf("pair %d: prover=%v semantics=%v\n p=%s\n q=%s",
				i, got, want, syntax.String(p), syntax.String(q))
			continue
		}
		agree++
		if want {
			pos++
		}
	}
	if pos == 0 {
		t.Error("no positive congruences sampled — generator mix broken")
	}
	t.Logf("agreement on %d pairs (%d positive)", agree, pos)
}
