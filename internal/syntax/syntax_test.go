package syntax

import (
	"testing"

	"bpi/internal/names"
)

// Handy names for tests.
const (
	a Name = "a"
	b Name = "b"
	c Name = "c"
	d Name = "d"
	x Name = "x"
	y Name = "y"
	z Name = "z"
)

func TestConstructorsFold(t *testing.T) {
	if !Equal(Choice(), PNil) || !Equal(Group(), PNil) {
		t.Fatal("empty folds must be nil")
	}
	p := SendN(a)
	if !Equal(Choice(p), p) || !Equal(Group(p), p) {
		t.Fatal("singleton folds must be identity")
	}
	s := Choice(p, p, p)
	if len(SumList(s)) != 3 {
		t.Fatalf("SumList = %v", SumList(s))
	}
	g := Group(p, p, p)
	if len(ParList(g)) != 3 {
		t.Fatalf("ParList = %v", ParList(g))
	}
	r := Restrict(p, x, y)
	rr, ok := r.(Res)
	if !ok || rr.X != x {
		t.Fatalf("Restrict order wrong: %v", String(r))
	}
}

func TestFreeNamesBasics(t *testing.T) {
	// a?(x).x!(b) : free {a,b}, x bound
	p := Recv(a, []Name{x}, SendN(x, b))
	if fn := FreeNames(p); !fn.Equal(names.NewSet(a, b)) {
		t.Errorf("fn = %v", fn)
	}
	// νx x!(a): free {a}
	q := Restrict(SendN(x, a), x)
	if fn := FreeNames(q); !fn.Equal(names.NewSet(a)) {
		t.Errorf("fn(nu) = %v", fn)
	}
	// match names are free
	m := If(x, y, PNil, PNil)
	if fn := FreeNames(m); !fn.Equal(names.NewSet(x, y)) {
		t.Errorf("fn(match) = %v", fn)
	}
}

func TestFreeNamesRec(t *testing.T) {
	// (rec A(x). x!().A(x))(a): free {a}
	body := Send(x, nil, Call{"A", []Name{x}})
	r := Rec{"A", []Name{x}, body, []Name{a}}
	if fn := FreeNames(r); !fn.Equal(names.NewSet(a)) {
		t.Errorf("fn(rec) = %v", fn)
	}
}

func TestSubstBasic(t *testing.T) {
	p := SendN(a, b)
	q := Apply(p, names.Single(a, c))
	if !Equal(q, SendN(c, b)) {
		t.Errorf("subst: %v", String(q))
	}
	// Substituting under a binder for a different name.
	p2 := Recv(a, []Name{x}, SendN(x, b))
	q2 := Apply(p2, names.Single(b, c))
	if !Equal(q2, Recv(a, []Name{x}, SendN(x, c))) {
		t.Errorf("subst under binder: %v", String(q2))
	}
	// Binder shadows the substitution domain.
	q3 := Apply(p2, names.Single(x, c))
	if !Equal(q3, p2) {
		t.Errorf("shadowed subst changed term: %v", String(q3))
	}
}

func TestSubstCaptureAvoidance(t *testing.T) {
	// (νx āx̄?) careful case: p = nu x. a!(x,b); apply [x/b] — the binder x
	// would capture; result must rename the binder.
	p := Restrict(SendN(a, x, b), x)
	q := Apply(p, names.Single(b, x))
	r, ok := q.(Res)
	if !ok {
		t.Fatalf("result shape: %v", String(q))
	}
	if r.X == x {
		t.Fatalf("binder not renamed: %v", String(q))
	}
	out := r.Body.(Prefix).Pre.(Out)
	if out.Args[0] != r.X || out.Args[1] != x {
		t.Fatalf("capture occurred: %v", String(q))
	}
	// Input binder capture.
	p2 := Recv(a, []Name{x}, SendN(x, b))
	q2 := Apply(p2, names.Single(b, x))
	in2 := q2.(Prefix).Pre.(In)
	if in2.Params[0] == x {
		t.Fatalf("input binder not renamed: %v", String(q2))
	}
}

func TestSubstSimultaneous(t *testing.T) {
	// Swap [y/x, x/y] must be simultaneous, not sequential.
	p := SendN(a, x, y)
	q := Apply(p, names.FromSlices([]Name{x, y}, []Name{y, x}))
	out := q.(Prefix).Pre.(Out)
	if out.Args[0] != y || out.Args[1] != x {
		t.Fatalf("swap broken: %v", String(q))
	}
}

func TestUnfold(t *testing.T) {
	// (rec A(x). x!().A(x))(a) unfolds to a!().(rec A(x). x!().A(x))(a)
	body := Send(x, nil, Call{"A", []Name{x}})
	r := Rec{"A", []Name{x}, body, []Name{a}}
	u := Unfold(r)
	want := Send(a, nil, Rec{"A", []Name{x}, body, []Name{a}})
	if !AlphaEqual(u, want) {
		t.Fatalf("unfold = %v, want %v", String(u), String(want))
	}
	// A second unfolding keeps working (regression for identifier capture).
	u2 := Unfold(u.(Prefix).Cont.(Rec))
	if !AlphaEqual(u2, want) {
		t.Fatalf("second unfold = %v", String(u2))
	}
}

func TestUnfoldNestedRecShadowing(t *testing.T) {
	// (rec A(x). tau.(rec A(y). A(y))(x) + A(x))(a): the inner rec shadows
	// A, so only the outer call is tied back.
	inner := Rec{"A", []Name{y}, Call{"A", []Name{y}}, []Name{x}}
	body := Sum{TauP(inner), TauP(Call{"A", []Name{x}})}
	r := Rec{"A", []Name{x}, body, []Name{a}}
	u := Unfold(r)
	s := u.(Sum)
	innerGot := s.L.(Prefix).Cont.(Rec)
	if got := innerGot.Body.(Call); got.Id != "A" {
		t.Fatalf("inner call rewritten: %v", String(u))
	}
	if _, isRec := innerGot.Body.(Rec); isRec {
		t.Fatalf("shadowed identifier was substituted: %v", String(u))
	}
	if _, isRec := s.R.(Prefix).Cont.(Rec); !isRec {
		t.Fatalf("outer call not tied back: %v", String(u))
	}
}

func TestAlphaEqual(t *testing.T) {
	p := Recv(a, []Name{x}, SendN(x))
	q := Recv(a, []Name{y}, SendN(y))
	if !AlphaEqual(p, q) {
		t.Error("alpha-equivalent inputs not detected")
	}
	r := Recv(a, []Name{x}, SendN(a))
	if AlphaEqual(p, r) {
		t.Error("distinct terms conflated")
	}
	// νx p ≡α νy p[y/x]
	p2 := Restrict(SendN(x, a), x)
	q2 := Restrict(SendN(y, a), y)
	if !AlphaEqual(p2, q2) {
		t.Error("alpha on restriction failed")
	}
	if Key(p2) != Key(q2) {
		t.Error("Key must agree on alpha-equivalent terms")
	}
	if Key(p) == Key(r) {
		t.Error("Key collision on distinct terms")
	}
}

func TestKeyDistinguishesStructure(t *testing.T) {
	pairs := [][2]Proc{
		{Sum{SendN(a), SendN(b)}, Par{SendN(a), SendN(b)}},
		{SendN(a, b), RecvN(a, b)},
		{If(a, b, SendN(c), PNil), If(a, b, PNil, SendN(c))},
		{Restrict(SendN(a), b), SendN(a)},
		{Send(a, nil, SendN(b)), Sum{SendN(a), SendN(b)}},
	}
	for i, pr := range pairs {
		if Key(pr[0]) == Key(pr[1]) {
			t.Errorf("case %d: Key collision between %v and %v", i, String(pr[0]), String(pr[1]))
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := []struct {
		p    Proc
		want string
	}{
		{PNil, "0"},
		{SendN(a, b, c), "a!(b,c)"},
		{SendN(a), "a!"},
		{RecvN(a, x), "a?(x)"},
		{TauP(SendN(a)), "tau.a!"},
		{Sum{SendN(a), SendN(b)}, "a! + b!"},
		{Par{SendN(a), SendN(b)}, "a! | b!"},
		{Par{Sum{SendN(a), SendN(b)}, SendN(c)}, "(a! + b!) | c!"},
		{Restrict(SendN(a, x), x), "nu x.a!(x)"},
		{If(x, y, SendN(a), PNil), "[x=y]a!"},
		{If(x, y, SendN(a), SendN(b)), "[x=y](a!, b!)"},
		{Call{"A", []Name{a, b}}, "A(a,b)"},
		{Send(a, []Name{b}, RecvN(c, z)), "a!(b).c?(z)"},
		{Prefix{In{a, []Name{x}}, Sum{SendN(b), SendN(c)}}, "a?(x).(b! + c!)"},
	}
	for _, cse := range cases {
		if got := String(cse.p); got != cse.want {
			t.Errorf("String() = %q, want %q", got, cse.want)
		}
	}
}

func TestEnvExpandAndValidate(t *testing.T) {
	// A(x) = x!().A(x)  — valid, guarded.
	env := Env{}.Define("A", []Name{x}, Send(x, nil, Call{"A", []Name{x}}))
	if err := env.Validate(); err != nil {
		t.Fatalf("valid env rejected: %v", err)
	}
	p, err := env.Expand(Call{"A", []Name{a}})
	if err != nil {
		t.Fatal(err)
	}
	if !AlphaEqual(p, Send(a, nil, Call{"A", []Name{a}})) {
		t.Errorf("expand = %v", String(p))
	}
	// Arity error.
	if _, err := env.Expand(Call{"A", []Name{a, b}}); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Unknown identifier.
	if _, err := env.Expand(Call{"B", nil}); err == nil {
		t.Error("unknown identifier accepted")
	}
	// Unguarded: B(x) = B(x) + x!()
	bad := Env{}.Define("B", []Name{x}, Sum{Call{"B", []Name{x}}, SendN(x)})
	if err := bad.Validate(); err == nil {
		t.Error("unguarded definition accepted")
	}
	// Free names outside parameters.
	leaky := Env{}.Define("C", []Name{x}, SendN(a))
	if err := leaky.Validate(); err == nil {
		t.Error("leaky definition accepted")
	}
	// Call to undefined identifier inside a body.
	dangling := Env{}.Define("D", []Name{x}, TauP(Call{"E", []Name{x}}))
	if err := dangling.Validate(); err == nil {
		t.Error("dangling call accepted")
	}
}

func TestMetrics(t *testing.T) {
	p := Sum{Send(a, nil, SendN(b)), TauP(PNil)}
	if Size(p) != 6 {
		t.Errorf("Size = %d", Size(p))
	}
	if !IsFinite(p) {
		t.Error("finite term misclassified")
	}
	if IsFinite(Call{"A", nil}) {
		t.Error("call misclassified as finite")
	}
}

func TestSimplifyLaws(t *testing.T) {
	p := SendN(a)
	cases := []struct{ in, want Proc }{
		{Sum{p, PNil}, p},          // S1
		{Sum{p, p}, p},             // S2
		{Par{p, PNil}, p},          // P1
		{Restrict(p, x), p},        // R1 (x not free)
		{If(a, a, p, SendN(b)), p}, // match true
		{If(a, b, SendN(b), p), p}, // match false on stable names
		{Sum{SendN(b), SendN(a)}, Sum{SendN(a), SendN(b)}}, // sorted
	}
	for i, cse := range cases {
		if got := Simplify(cse.in); !Equal(got, cse.want) {
			t.Errorf("case %d: Simplify(%v) = %v, want %v", i, String(cse.in), String(got), String(cse.want))
		}
	}
}

func TestSimplifyKeepsInstantiableMatches(t *testing.T) {
	// a?(x).[x=b]c!,d! must keep the conditional: x may be instantiated to b.
	p := Recv(a, []Name{x}, If(x, b, SendN(c), SendN(d)))
	got := Simplify(p)
	if _, ok := got.(Prefix).Cont.(Match); !ok {
		t.Fatalf("match under input binder eliminated: %v", String(got))
	}
	// But a match on two outer free names under the same binder is stable.
	q := Recv(a, []Name{x}, If(b, c, SendN(b), SendN(d)))
	want := Recv(a, []Name{x}, SendN(d))
	if got := Simplify(q); !Equal(got, want) {
		t.Fatalf("stable match kept: %v", String(got))
	}
}

func TestSimplifyParallelCanonical(t *testing.T) {
	p := Group(SendN(b), PNil, SendN(a))
	q := Group(SendN(a), SendN(b))
	if !Equal(Simplify(p), Simplify(q)) {
		t.Errorf("parallel canonicalisation differs: %v vs %v", String(Simplify(p)), String(Simplify(q)))
	}
	// Restriction reordering.
	r1 := Restrict(SendN(a, x, y), y, x)
	r2 := Restrict(SendN(a, x, y), x, y)
	if Key(Simplify(r1)) != Key(Simplify(r2)) {
		t.Error("nu reordering not canonical")
	}
}

func TestSimplifySoundOnShadowedRestriction(t *testing.T) {
	// nu x. nu x. x!(a) — shadowed binders must not be reordered away.
	p := Res{x, Res{x, SendN(x, a)}}
	got := Simplify(p)
	// Inner x is the one used; outer is unused so R1 may drop it, which is
	// sound; what matters is the term still emits on a bound channel.
	fn := FreeNames(got)
	if !fn.Equal(names.NewSet(a)) {
		t.Fatalf("free names changed: %v (%v)", fn, String(got))
	}
}

func TestCheckSorts(t *testing.T) {
	// a used at arities 0 and 1: conflict.
	p := Group(SendN(a, b), RecvN(a))
	issues := CheckSorts(p, nil)
	if len(issues) != 1 || issues[0].Channel != a {
		t.Fatalf("issues: %v", issues)
	}
	if got := issues[0].String(); got == "" {
		t.Error("empty issue rendering")
	}
	// Consistent usage: no issues.
	q := Group(SendN(a, b), Recv(a, []Name{x}, SendN(x)))
	if issues := CheckSorts(q, nil); len(issues) != 0 {
		t.Fatalf("false positives: %v", issues)
	}
	// Bound input parameters are not tracked (received names are dynamic).
	r := Recv(a, []Name{x}, Group(SendN(x), SendN(x, b)))
	if issues := CheckSorts(r, nil); len(issues) != 0 {
		t.Fatalf("bound-name false positive: %v", issues)
	}
	// Environment bodies are included.
	env := Env{}.Define("A", []Name{x}, Group(SendN(b), SendN(b, x)))
	if issues := CheckSorts(PNil, env); len(issues) != 1 || issues[0].Channel != b {
		t.Fatalf("env issues: %v", issues)
	}
	// Restricted channels are checked too.
	s := Restrict(Group(SendN(z), RecvN(z, x)), z)
	if issues := CheckSorts(s, nil); len(issues) != 1 {
		t.Fatalf("restricted conflict missed: %v", issues)
	}
}

// TestEqualFieldMismatches walks Equal/preEqual through every near-miss:
// same node kind, one field off.
func TestEqualFieldMismatches(t *testing.T) {
	a, b, x, y := Name("a"), Name("b"), Name("x"), Name("y")
	rec := Rec{Id: "A", Params: []Name{x}, Body: SendN(x), Args: []Name{a}}
	pairs := []struct {
		name string
		p, q Proc
	}{
		{"out-channel", SendN(a, x), SendN(b, x)},
		{"out-args", SendN(a, x), SendN(a, y)},
		{"out-arity", SendN(a, x), SendN(a, x, y)},
		{"in-params", RecvN(a, x), RecvN(a, y)},
		{"pre-kind", SendN(a), RecvN(a)},
		{"call-id", Call{Id: "A"}, Call{Id: "B"}},
		{"call-args", Call{Id: "A", Args: []Name{a}}, Call{Id: "A", Args: []Name{b}}},
		{"rec-id", rec, Rec{Id: "B", Params: []Name{x}, Body: SendN(x), Args: []Name{a}}},
		{"rec-params", rec, Rec{Id: "A", Params: []Name{y}, Body: SendN(x), Args: []Name{a}}},
		{"rec-args", rec, Rec{Id: "A", Params: []Name{x}, Body: SendN(x), Args: []Name{b}}},
		{"rec-body", rec, Rec{Id: "A", Params: []Name{x}, Body: SendN(y), Args: []Name{a}}},
		{"match-else", Match{X: a, Y: b, Then: PNil, Else: SendN(a)}, Match{X: a, Y: b, Then: PNil, Else: SendN(b)}},
	}
	for _, tc := range pairs {
		if Equal(tc.p, tc.q) {
			t.Errorf("%s: Equal(%s, %s) = true", tc.name, String(tc.p), String(tc.q))
		}
	}
}

// TestCanonRec: canonicalisation renames Rec binders (params) but leaves
// the instantiating args in the outer scope.
func TestCanonRec(t *testing.T) {
	a, x, y := Name("a"), Name("x"), Name("y")
	p := Rec{Id: "A", Params: []Name{x}, Body: SendN(x), Args: []Name{a}}
	q := Rec{Id: "A", Params: []Name{y}, Body: SendN(y), Args: []Name{a}}
	if !AlphaEqual(p, q) {
		t.Error("Rec terms differing only in the Param binder are not AlphaEqual")
	}
	r := Rec{Id: "A", Params: []Name{x}, Body: SendN(x), Args: []Name{y}}
	if AlphaEqual(p, r) {
		t.Error("Rec terms with different free Args are AlphaEqual")
	}
}
