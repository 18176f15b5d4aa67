package axioms

import (
	"testing"

	"bpi/internal/equiv"
	"bpi/internal/names"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

func TestNormalFormShape(t *testing.T) {
	cases := []syntax.Proc{
		syntax.Group(syntax.SendN(a), syntax.RecvN(a)),
		syntax.Restrict(syntax.Send(a, []names.Name{x}, syntax.SendN(x)), x),
		syntax.Group(
			syntax.Restrict(syntax.SendN(a, x), x),
			syntax.Recv(a, []names.Name{"y"}, syntax.SendN("y")),
		),
		syntax.If(a, b, syntax.Group(syntax.SendN(a), syntax.SendN(b)), syntax.PNil),
		syntax.Restrict(syntax.Group(syntax.SendN(x), syntax.RecvN(x, "y")), x),
		syntax.Restrict(syntax.Group(syntax.Send(a, nil, syntax.SendN(x)), syntax.Recv(a, nil, syntax.SendN(b)), syntax.RecvN(x)), x),
	}
	for i, p := range cases {
		nf, err := NormalForm(p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !IsNormalForm(nf) {
			t.Errorf("case %d: not in normal form:\n in  = %s\n out = %s",
				i, syntax.String(p), syntax.String(nf))
		}
	}
}

func TestNormalFormSemanticEquivalence(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := brand.Default()
	cfg.MaxDepth = 3
	cfg.MaxArity = -1 // the uniform-arity fragment of Table 8
	cfg.Names = []names.Name{"a", "b"}
	g := brand.New(616, cfg)
	nontrivial := 0
	for i := 0; i < 25; i++ {
		p := g.Term()
		nf, err := NormalForm(p)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !IsNormalForm(nf) {
			t.Errorf("sample %d: result not normal: %s", i, syntax.String(nf))
			continue
		}
		if !syntax.Equal(p, nf) {
			nontrivial++
		}
		ok, err := ch.Congruence(p, nf, false)
		if err != nil {
			t.Fatalf("sample %d congruence: %v", i, err)
		}
		if !ok {
			t.Errorf("sample %d: NormalForm changed behaviour:\n in  = %s\n out = %s",
				i, syntax.String(p), syntax.String(nf))
		}
	}
	if nontrivial == 0 {
		t.Fatal("no nontrivial normalisations sampled")
	}
	t.Logf("%d nontrivial normalisations verified ~c", nontrivial)
}

func TestNormalFormBoundOutput(t *testing.T) {
	// νx āx.x̄ must survive as a bound-output prefix with its continuation
	// still under the ν.
	p := syntax.Restrict(syntax.Send(a, []names.Name{x}, syntax.SendN(x)), x)
	nf, err := NormalForm(p)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := nf.(syntax.Res)
	if !ok {
		t.Fatalf("shape: %s", syntax.String(nf))
	}
	pre := r.Body.(syntax.Prefix)
	if out := pre.Pre.(syntax.Out); out.Ch != a || out.Args[0] != r.X {
		t.Fatalf("bound output mangled: %s", syntax.String(nf))
	}
}

func TestNormalFormRestrictionLaws(t *testing.T) {
	ch := equiv.NewChecker(nil)
	// RP2: νa āb.c̄ normalises to τ.c̄ (weakly visible as c̄).
	p := syntax.Restrict(syntax.Send(a, []names.Name{b}, syntax.SendN(c)), a)
	nf, err := NormalForm(p)
	if err != nil {
		t.Fatal(err)
	}
	want := syntax.TauP(syntax.SendN(c))
	res, err := ch.Labelled(nf, want, false)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Related {
		t.Errorf("RP2 push: got %s", syntax.String(nf))
	}
	// RP3: νa a(x).p normalises to nil.
	q := syntax.Restrict(syntax.RecvN(a, x), a)
	nf, err = NormalForm(q)
	if err != nil {
		t.Fatal(err)
	}
	if !syntax.Equal(nf, syntax.PNil) {
		t.Errorf("RP3 push: got %s", syntax.String(nf))
	}
	// RM1: νa (a=b)c̄,d̄ normalises to d̄.
	m := syntax.Restrict(syntax.If(a, b, syntax.SendN(c), syntax.SendN(d)), a)
	nf, err = NormalForm(m)
	if err != nil {
		t.Fatal(err)
	}
	if !syntax.Equal(nf, syntax.SendN(d)) {
		t.Errorf("RM1 push: got %s", syntax.String(nf))
	}
}

func TestNormalFormRejectsRecursion(t *testing.T) {
	r := syntax.Rec{Id: "A", Params: nil, Body: syntax.TauP(syntax.Call{Id: "A"}), Args: nil}
	if _, err := NormalForm(r); err == nil {
		t.Fatal("recursion accepted")
	}
}

const d names.Name = "d"
