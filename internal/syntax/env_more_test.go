package syntax

import (
	"strings"
	"testing"
)

// TestValidateUnguardedCycles drives unguardedCycle/unguardedCalls through
// every constructor an unguarded reference can hide under: a cycle is only a
// cycle when no prefix guards any edge, regardless of the operators between
// the definition head and the call.
func TestValidateUnguardedCycles(t *testing.T) {
	cases := []struct {
		name string
		env  Env
		ok   bool
	}{
		{
			// A = B | tau.0 ; B = A + tau.0 — unguarded cycle through Par/Sum.
			"par-sum cycle",
			Env{}.
				Define("A", nil, Par{Call{"B", nil}, TauP(PNil)}).
				Define("B", nil, Sum{Call{"A", nil}, TauP(PNil)}),
			false,
		},
		{
			// A = νz ([z=z] B else 0) ; B = tau.A — the Res/Match hop is
			// unguarded but B reaches A only under a prefix: no cycle.
			"guarded back-edge",
			Env{}.
				Define("A", nil, Restrict(If(z, z, Call{"B", nil}, PNil), z)).
				Define("B", nil, TauP(Call{"A", nil})),
			true,
		},
		{
			// A = νz [z=z] A else 0 — self-loop through Res and Match.
			"res-match self-loop",
			Env{}.Define("A", nil, Restrict(If(z, z, Call{"A", nil}, PNil), z)),
			false,
		},
		{
			// A = rec X. (A | tau.X) — the rec binder shadows X but the free
			// occurrence of A inside the rec body is still unguarded.
			"unguarded through rec body",
			Env{}.Define("A", nil, Rec{"X", nil, Par{Call{"A", nil}, TauP(Call{"X", nil})}, nil}),
			false,
		},
		{
			// A = rec X. tau.(X | A) — everything is under the tau prefix.
			"rec body guarded",
			Env{}.Define("A", nil, Rec{"X", nil, TauP(Par{Call{"X", nil}, Call{"A", nil}}), nil}),
			true,
		},
	}
	for _, cse := range cases {
		err := cse.env.Validate()
		if cse.ok && err != nil {
			t.Errorf("%s: valid env rejected: %v", cse.name, err)
		}
		if !cse.ok {
			if err == nil {
				t.Errorf("%s: unguarded cycle accepted", cse.name)
			} else if !strings.Contains(err.Error(), "unguarded") {
				t.Errorf("%s: wrong error: %v", cse.name, err)
			}
		}
	}
}

// TestCheckCallsErrors exercises the arity and resolution checks of
// Env.CheckCalls through each syntactic position a Call can occupy.
func TestCheckCallsErrors(t *testing.T) {
	base := Env{}.Define("A", []Name{x}, TauP(SendN(x)))
	cases := []struct {
		name string
		body Proc
		want string // substring of the expected error ("" = valid)
	}{
		{"call under prefix", TauP(Call{"A", []Name{z}}), ""},
		{"arity under sum", Sum{TauP(PNil), TauP(Call{"A", nil})}, "expects 1 args"},
		{"undefined under par", Par{TauP(PNil), TauP(Call{"Z", nil})}, "undefined identifier"},
		{"arity under res", Restrict(TauP(Call{"A", []Name{z, z}}), z), "expects 1 args"},
		{"undefined under match", If(z, z, PNil, TauP(Call{"Z", nil})), "undefined identifier"},
		{"rec call arity", Rec{"X", []Name{y}, TauP(Call{"X", nil}), []Name{z}}, "expects 1 args"},
		{"rec params/args mismatch", Rec{"X", []Name{y}, TauP(PNil), nil}, "1 params but 0 args"},
		{"rec shadows env id", Rec{"A", nil, TauP(Call{"A", nil}), nil}, ""},
	}
	for _, cse := range cases {
		env := base.Define("D", []Name{z}, cse.body)
		err := env.Validate()
		if cse.want == "" {
			if err != nil {
				t.Errorf("%s: valid body rejected: %v", cse.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: bad body accepted", cse.name)
		} else if !strings.Contains(err.Error(), cse.want) {
			t.Errorf("%s: error %q does not mention %q", cse.name, err, cse.want)
		}
	}
}

// TestMetricsOperators pins Size/IsFinite on the constructors the
// basic metrics test leaves out (restriction, match, rec, call).
func TestMetricsOperators(t *testing.T) {
	rec := Rec{"X", nil, TauP(Call{"X", nil}), nil}
	m := If(a, b, TauP(TauP(PNil)), SendN(c))
	r := Restrict(m, z)
	if got := Size(r); got != 7 {
		t.Errorf("Size(res-match) = %d, want 7", got)
	}
	if got := Size(rec); got != 3 {
		t.Errorf("Size(rec) = %d, want 3", got)
	}
	if !IsFinite(r) {
		t.Error("finite res-match misclassified")
	}
	if IsFinite(rec) || IsFinite(Par{PNil, rec}) || IsFinite(Restrict(rec, z)) ||
		IsFinite(If(a, b, rec, PNil)) || IsFinite(Sum{TauP(PNil), TauP(rec)}) {
		t.Error("recursive term classified as finite")
	}
}
