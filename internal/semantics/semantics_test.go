package semantics

import (
	"strings"
	"testing"

	"bpi/internal/actions"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	d names.Name = "d"
	o names.Name = "o"
	x names.Name = "x"
	y names.Name = "y"
	z names.Name = "z"
)

var sys = NewSystem(nil)

func mustSteps(t *testing.T, p syntax.Proc) []Trans {
	t.Helper()
	ts, err := sys.Steps(p)
	if err != nil {
		t.Fatalf("Steps(%s): %v", syntax.String(p), err)
	}
	return ts
}

func mustDiscards(t *testing.T, p syntax.Proc, ch names.Name) bool {
	t.Helper()
	ok, err := sys.Discards(p, ch)
	if err != nil {
		t.Fatalf("Discards(%s, %s): %v", syntax.String(p), ch, err)
	}
	return ok
}

// filter returns the transitions whose label kind and subject match.
func filter(ts []Trans, k actions.Kind, subj names.Name) []Trans {
	var out []Trans
	for _, t := range ts {
		if t.Act.Kind == k && (k == actions.Tau || t.Act.Subj == subj) {
			out = append(out, t)
		}
	}
	return out
}

func taus(ts []Trans) []Trans { return filter(ts, actions.Tau, "") }

// ---- Table 2: the discard relation ---------------------------------------

func TestDiscardRelation(t *testing.T) {
	cases := []struct {
		p    syntax.Proc
		ch   names.Name
		want bool
	}{
		{syntax.PNil, a, true},                                            // (1)
		{syntax.TauP(syntax.RecvN(a, x)), a, true},                        // (2)
		{syntax.Send(b, nil, syntax.RecvN(a, x)), a, true},                // (3)
		{syntax.RecvN(b, x), a, true},                                     // (4) a≠b
		{syntax.RecvN(a, x), a, false},                                    // (4) listening
		{syntax.Restrict(syntax.RecvN(a, x), a), a, true},                 // (5) x=a: inner a is local
		{syntax.Restrict(syntax.RecvN(a, x), b), a, false},                // (5)
		{syntax.Choice(syntax.RecvN(a, x), syntax.RecvN(b, y)), a, false}, // (6)
		{syntax.Choice(syntax.RecvN(c, x), syntax.RecvN(b, y)), a, true},  // (6)
		{syntax.If(a, a, syntax.RecvN(a, x), syntax.PNil), a, false},      // (7)
		{syntax.If(a, b, syntax.RecvN(a, x), syntax.PNil), a, true},       // (8)
		{syntax.Group(syntax.RecvN(a, x), syntax.PNil), a, false},         // (9)
		{syntax.Group(syntax.PNil, syntax.PNil), a, true},                 // (9)
	}
	for i, cse := range cases {
		if got := mustDiscards(t, cse.p, cse.ch); got != cse.want {
			t.Errorf("case %d: Discards(%s, %s) = %v, want %v", i, syntax.String(cse.p), cse.ch, got, cse.want)
		}
	}
}

func TestDiscardRec(t *testing.T) {
	// (rec A(x). x?(y).A(x))(a) listens on a. (10)
	r := syntax.Rec{Id: "A", Params: []names.Name{x}, Body: syntax.Recv(x, []names.Name{y}, syntax.Call{Id: "A", Args: []names.Name{x}}), Args: []names.Name{a}}
	if mustDiscards(t, r, a) {
		t.Error("rec listening on a must not discard a")
	}
	if !mustDiscards(t, r, b) {
		t.Error("rec not listening on b must discard b")
	}
}

func TestDiscardUnguardedRecursionBudget(t *testing.T) {
	s := &System{MaxUnfold: 16}
	r := syntax.Rec{Id: "A", Params: nil, Body: syntax.Call{Id: "A"}, Args: nil}
	if _, err := s.Discards(r, a); err == nil {
		t.Fatal("expected unfold budget error")
	} else if _, ok := err.(ErrUnfoldBudget); !ok {
		t.Fatalf("wrong error type: %v", err)
	}
	if _, err := s.Steps(r); err == nil {
		t.Fatal("expected unfold budget error from Steps")
	}
}

// ---- Table 3: basic prefixes, sum, match, rec -----------------------------

func TestStepPrefixes(t *testing.T) {
	// τ.p
	ts := mustSteps(t, syntax.TauP(syntax.SendN(a)))
	if len(ts) != 1 || !ts[0].Act.IsTau() || !syntax.Equal(ts[0].Target, syntax.SendN(a)) {
		t.Fatalf("tau prefix: %v", ts)
	}
	// āb.p
	ts = mustSteps(t, syntax.Send(a, []names.Name{b}, syntax.SendN(c)))
	if len(ts) != 1 || ts[0].Act.String() != "a!(b)" {
		t.Fatalf("output prefix: %v", ts)
	}
	// a(x).x̄ — symbolic input, then instantiation (early rule 3)
	ts = mustSteps(t, syntax.Recv(a, []names.Name{x}, syntax.SendN(x)))
	if len(ts) != 1 || !ts[0].Act.IsInput() {
		t.Fatalf("input prefix: %v", ts)
	}
	act, tgt := Instantiate(ts[0], []names.Name{c})
	if act.String() != "a?(c)" || !syntax.Equal(tgt, syntax.SendN(c)) {
		t.Fatalf("instantiate: %s %s", act, syntax.String(tgt))
	}
}

func TestStepSumAndMatch(t *testing.T) {
	p := syntax.Choice(syntax.SendN(a), syntax.SendN(b))
	ts := mustSteps(t, p)
	if len(ts) != 2 {
		t.Fatalf("sum should offer both branches: %v", ts)
	}
	eq := syntax.If(a, a, syntax.SendN(b), syntax.SendN(c))
	if ts := mustSteps(t, eq); len(ts) != 1 || ts[0].Act.Subj != b {
		t.Fatalf("match-true: %v", ts)
	}
	ne := syntax.If(a, b, syntax.SendN(b), syntax.SendN(c))
	if ts := mustSteps(t, ne); len(ts) != 1 || ts[0].Act.Subj != c {
		t.Fatalf("match-false: %v", ts)
	}
}

func TestStepRecUnfolds(t *testing.T) {
	// (rec A(x). x̄.A(x))(a) --ā--> itself
	r := syntax.Rec{Id: "A", Params: []names.Name{x}, Body: syntax.Send(x, nil, syntax.Call{Id: "A", Args: []names.Name{x}}), Args: []names.Name{a}}
	ts := mustSteps(t, r)
	if len(ts) != 1 || ts[0].Act.Subj != a {
		t.Fatalf("rec step: %v", ts)
	}
	if !syntax.AlphaEqual(ts[0].Target, r) {
		t.Fatalf("rec target: %v", syntax.String(ts[0].Target))
	}
}

func TestStepCallEnv(t *testing.T) {
	env := syntax.Env{}.Define("A", []names.Name{x}, syntax.Send(x, nil, syntax.Call{Id: "A", Args: []names.Name{x}}))
	s := NewSystem(env)
	ts, err := s.Steps(syntax.Call{Id: "A", Args: []names.Name{a}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 1 || ts[0].Act.Subj != a {
		t.Fatalf("call step: %v", ts)
	}
	if _, err := s.Steps(syntax.Call{Id: "Z"}); err == nil {
		t.Fatal("undefined call must error")
	}
}

// ---- Restriction: rules (5), (6), (7) -------------------------------------

func TestResInternalisesPrivateOutput(t *testing.T) {
	// Remark 1 driver: νa āb --τ--> νa nil (rule 6).
	p := syntax.Restrict(syntax.SendN(a, b), a)
	ts := mustSteps(t, p)
	if len(ts) != 1 || !ts[0].Act.IsTau() {
		t.Fatalf("expected exactly the internal step: %v", ts)
	}
	if fn := syntax.FreeNames(ts[0].Target); fn.Len() != 0 {
		t.Fatalf("target free names: %v", fn)
	}
}

func TestResExtrusion(t *testing.T) {
	// νx āx --(^x)ā(x)--> nil (rule 5): bound output.
	p := syntax.Restrict(syntax.SendN(a, x), x)
	ts := mustSteps(t, p)
	if len(ts) != 1 {
		t.Fatalf("transitions: %v", ts)
	}
	act := ts[0].Act
	if !act.IsOutput() || act.Subj != a || len(act.Bound) != 1 || act.Bound[0] != act.Objs[0] {
		t.Fatalf("extrusion label: %s", act)
	}
}

func TestResBlocksExternalInput(t *testing.T) {
	// νa a(x).p has no transitions: the environment cannot know a.
	p := syntax.Restrict(syntax.RecvN(a, x), a)
	if ts := mustSteps(t, p); len(ts) != 0 {
		t.Fatalf("private input should be silent: %v", ts)
	}
}

func TestResPassesUnrelated(t *testing.T) {
	// νz āb keeps its output (rule 7), with the restriction intact.
	p := syntax.Restrict(syntax.Send(a, []names.Name{b}, syntax.SendN(z)), z)
	ts := mustSteps(t, p)
	if len(ts) != 1 || ts[0].Act.Subj != a || len(ts[0].Act.Bound) != 0 {
		t.Fatalf("rule 7 output: %v", ts)
	}
	if _, ok := ts[0].Target.(syntax.Res); !ok {
		t.Fatalf("restriction dropped: %v", syntax.String(ts[0].Target))
	}
}

func TestResShadowedBinderInLabel(t *testing.T) {
	// νa (νa āb): inner extrusion on the private channel a — the output's
	// subject is the inner a, so the τ happens inside; outer νa sees τ.
	inner := syntax.Restrict(syntax.SendN(a, b), a)
	p := syntax.Restrict(inner, a)
	ts := mustSteps(t, p)
	if len(ts) != 1 || !ts[0].Act.IsTau() {
		t.Fatalf("shadowed restriction: %v", ts)
	}
}

func TestResInputParamCollision(t *testing.T) {
	// νx (a?(x̂).…) where the input parameter is textually x: the label's
	// binder must be renamed so the restriction is not confused with it.
	p := syntax.Restrict(syntax.Recv(a, []names.Name{x}, syntax.SendN(x, x)), x)
	ts := mustSteps(t, p)
	if len(ts) != 1 || !ts[0].Act.IsInput() {
		t.Fatalf("want one input: %v", ts)
	}
	if ts[0].Act.Objs[0] == x {
		t.Fatalf("binder not renamed away from restriction: %s", ts[0].Act)
	}
	// The input parameter shadows the restricted x: after instantiation with
	// b the continuation is b̄b under the (now unused) restriction.
	_, tgt := Instantiate(ts[0], []names.Name{b})
	r, ok := tgt.(syntax.Res)
	if !ok {
		t.Fatalf("restriction lost: %v", syntax.String(tgt))
	}
	out := r.Body.(syntax.Prefix).Pre.(syntax.Out)
	if out.Ch != b || out.Args[0] != b {
		t.Fatalf("wrong instantiation: %v", syntax.String(tgt))
	}
}

// ---- Parallel composition: rules (12), (13), (14) --------------------------

func TestParBroadcastReachesAllListeners(t *testing.T) {
	// āb ‖ a(x).x̄c ‖ a(y).ȳd --āb--> nil ‖ b̄c ‖ b̄d: one send, two receivers.
	p := syntax.Group(
		syntax.SendN(a, b),
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x, c)),
		syntax.Recv(a, []names.Name{y}, syntax.SendN(y, d)),
	)
	ts := filter(mustSteps(t, p), actions.Out, a)
	if len(ts) != 1 {
		t.Fatalf("expected exactly one broadcast transition, got %v", ts)
	}
	want := syntax.Group(syntax.PNil, syntax.SendN(b, c), syntax.SendN(b, d))
	if !syntax.AlphaEqual(ts[0].Target, want) {
		t.Fatalf("broadcast target = %v, want %v", syntax.String(ts[0].Target), syntax.String(want))
	}
}

func TestParListenerCannotIgnore(t *testing.T) {
	// āb ‖ a(x).c̄: the listener must take the message — there is no
	// transition leaving it unchanged.
	p := syntax.Group(syntax.SendN(a, b), syntax.Recv(a, []names.Name{x}, syntax.SendN(c)))
	ts := filter(mustSteps(t, p), actions.Out, a)
	if len(ts) != 1 {
		t.Fatalf("want 1 output, got %v", ts)
	}
	want := syntax.Group(syntax.PNil, syntax.SendN(c))
	if !syntax.AlphaEqual(ts[0].Target, want) {
		t.Fatalf("receiver skipped the broadcast: %v", syntax.String(ts[0].Target))
	}
}

func TestParDiscardLeavesUnchanged(t *testing.T) {
	// āb ‖ c(x).d̄: the sibling ignores a (rule 14).
	q := syntax.Recv(c, []names.Name{x}, syntax.SendN(d))
	p := syntax.Group(syntax.SendN(a, b), q)
	ts := filter(mustSteps(t, p), actions.Out, a)
	if len(ts) != 1 {
		t.Fatalf("want 1 output, got %v", ts)
	}
	want := syntax.Group(syntax.PNil, q)
	if !syntax.AlphaEqual(ts[0].Target, want) {
		t.Fatalf("discard target: %v", syntax.String(ts[0].Target))
	}
}

func TestParJointInput(t *testing.T) {
	// a(x).x̄ ‖ a(y).ȳ: one broadcast from the environment reaches both
	// (rule 12): a?(z) target z̄ ‖ z̄. Also each can receive alone? No —
	// the other listens on a, so it cannot discard: only the joint input.
	p := syntax.Group(
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x)),
		syntax.Recv(a, []names.Name{y}, syntax.SendN(y)),
	)
	ts := filter(mustSteps(t, p), actions.In, a)
	if len(ts) != 1 {
		t.Fatalf("want exactly the joint input, got %v", ts)
	}
	act, tgt := Instantiate(ts[0], []names.Name{c})
	if act.Subj != a {
		t.Fatalf("label: %s", act)
	}
	want := syntax.Group(syntax.SendN(c), syntax.SendN(c))
	if !syntax.AlphaEqual(tgt, want) {
		t.Fatalf("joint input target: %v", syntax.String(tgt))
	}
}

func TestParInputWithDiscardingSibling(t *testing.T) {
	// a(x).x̄ ‖ b(y): input on a goes alone; sibling (listening on b) discards.
	sib := syntax.RecvN(b, y)
	p := syntax.Group(syntax.Recv(a, []names.Name{x}, syntax.SendN(x)), sib)
	ts := filter(mustSteps(t, p), actions.In, a)
	if len(ts) != 1 {
		t.Fatalf("input transitions: %v", ts)
	}
	_, tgt := Instantiate(ts[0], []names.Name{c})
	want := syntax.Group(syntax.SendN(c), sib)
	if !syntax.AlphaEqual(tgt, want) {
		t.Fatalf("target: %v", syntax.String(tgt))
	}
}

func TestParTauIgnoredByEveryone(t *testing.T) {
	// τ.ā ‖ a(x): τ moves alone (sub(τ)=τ is discarded by all).
	p := syntax.Group(syntax.TauP(syntax.SendN(a)), syntax.RecvN(a, x))
	ts := taus(mustSteps(t, p))
	if len(ts) != 1 {
		t.Fatalf("tau transitions: %v", ts)
	}
	want := syntax.Group(syntax.SendN(a), syntax.RecvN(a, x))
	if !syntax.AlphaEqual(ts[0].Target, want) {
		t.Fatalf("tau target: %v", syntax.String(ts[0].Target))
	}
}

func TestParMismatchedArityBlocksBroadcast(t *testing.T) {
	// ā(b) ‖ a(x,y).p: the sibling listens on a at the wrong arity — it can
	// neither receive nor discard, so the broadcast is stuck (well-sorted
	// usage never does this; the semantics is faithful to the rules).
	p := syntax.Group(syntax.SendN(a, b), syntax.RecvN(a, x, y))
	if ts := filter(mustSteps(t, p), actions.Out, a); len(ts) != 0 {
		t.Fatalf("arity-mismatched broadcast should be stuck: %v", ts)
	}
}

func TestParScopeExtrusionToSibling(t *testing.T) {
	// (νz āz.z(w).w̄) ‖ a(x).x̄b: the private z is extruded; the sibling
	// answers on z. After the bound output the two ends share z.
	sender := syntax.Restrict(
		syntax.Send(a, []names.Name{z}, syntax.Recv(z, []names.Name{"w"}, syntax.SendN("w"))), z)
	recvr := syntax.Recv(a, []names.Name{x}, syntax.SendN(x, b))
	p := syntax.Group(sender, recvr)
	ts := filter(mustSteps(t, p), actions.Out, a)
	if len(ts) != 1 {
		t.Fatalf("bound output transitions: %v", ts)
	}
	act := ts[0].Act
	if len(act.Bound) != 1 {
		t.Fatalf("expected extrusion: %s", act)
	}
	fresh := act.Bound[0]
	// Target: z(w).w̄ ‖ z̄b with the shared fresh name.
	want := syntax.Group(
		syntax.Recv(fresh, []names.Name{"w"}, syntax.SendN("w")),
		syntax.SendN(fresh, b),
	)
	if !syntax.AlphaEqual(ts[0].Target, want) {
		t.Fatalf("extrusion target: %v want %v", syntax.String(ts[0].Target), syntax.String(want))
	}
	// And the subsequent private dialogue: restore the restriction as rule 6
	// would after a surrounding ν; here z is free so the reply is visible.
	ts2 := filter(mustSteps(t, ts[0].Target), actions.Out, fresh)
	if len(ts2) != 1 {
		t.Fatalf("reply transitions: %v", ts2)
	}
}

func TestParExtrusionAvoidsSiblingCapture(t *testing.T) {
	// (νb āb) ‖ b̄c: the extruded name must be renamed away from the
	// sibling's free b (side condition of rule 13/14).
	sender := syntax.Restrict(syntax.SendN(a, b), b)
	sib := syntax.SendN(b, c)
	p := syntax.Group(sender, sib)
	ts := filter(mustSteps(t, p), actions.Out, a)
	if len(ts) != 1 {
		t.Fatalf("transitions: %v", ts)
	}
	if got := ts[0].Act.Bound[0]; got == b {
		t.Fatalf("extruded name captured sibling's b: %s", ts[0].Act)
	}
}

func TestParInputParamAvoidsSiblingCapture(t *testing.T) {
	// a(x).x̄ ‖ x̄c with the sibling using x free: the symbolic input binder
	// must be renamed before combining with the discarding sibling.
	sib := syntax.SendN(x, c)
	p := syntax.Group(syntax.Recv(a, []names.Name{x}, syntax.SendN(x)), sib)
	ts := filter(mustSteps(t, p), actions.In, a)
	if len(ts) != 1 {
		t.Fatalf("inputs: %v", ts)
	}
	if ts[0].Act.Objs[0] == x {
		t.Fatalf("binder collides with sibling free name: %s", ts[0].Act)
	}
	_, tgt := Instantiate(ts[0], []names.Name{x})
	want := syntax.Group(syntax.SendN(x), sib)
	if !syntax.AlphaEqual(tgt, want) {
		t.Fatalf("instantiated: %v", syntax.String(tgt))
	}
}

func TestThreeWayJointInput(t *testing.T) {
	// Three listeners on a: a single environment broadcast feeds all three.
	p := syntax.Group(
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x)),
		syntax.Recv(a, []names.Name{y}, syntax.SendN(y)),
		syntax.Recv(a, []names.Name{z}, syntax.SendN(z)),
	)
	ts := filter(mustSteps(t, p), actions.In, a)
	if len(ts) != 1 {
		t.Fatalf("want one joint input: %v", ts)
	}
	_, tgt := Instantiate(ts[0], []names.Name{d})
	want := syntax.Group(syntax.SendN(d), syntax.SendN(d), syntax.SendN(d))
	if !syntax.AlphaEqual(tgt, want) {
		t.Fatalf("3-way input: %v", syntax.String(tgt))
	}
}

func TestSumOfInputsOffersBoth(t *testing.T) {
	// a(x).x̄ + b(y).ȳ: listening on both; discards neither a nor b.
	p := syntax.Choice(
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x)),
		syntax.Recv(b, []names.Name{y}, syntax.SendN(y)),
	)
	ts := mustSteps(t, p)
	if len(filter(ts, actions.In, a)) != 1 || len(filter(ts, actions.In, b)) != 1 {
		t.Fatalf("sum of inputs: %v", ts)
	}
	if mustDiscards(t, p, a) || mustDiscards(t, p, b) {
		t.Error("sum listening on a and b must not discard them")
	}
	if !mustDiscards(t, p, c) {
		t.Error("sum must discard c")
	}
}

func TestDedupeTransitions(t *testing.T) {
	// ā + ā has one transition after dedup.
	p := syntax.Choice(syntax.SendN(a), syntax.SendN(a))
	if ts := mustSteps(t, p); len(ts) != 1 {
		t.Fatalf("dedupe failed: %v", ts)
	}
	// Alpha-equivalent inputs dedupe too.
	q := syntax.Choice(
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x)),
		syntax.Recv(a, []names.Name{y}, syntax.SendN(y)),
	)
	if ts := mustSteps(t, q); len(ts) != 1 {
		t.Fatalf("alpha dedupe failed: %v", ts)
	}
}

func TestTransKeyStableAcrossAlpha(t *testing.T) {
	t1 := Trans{actions.NewIn(a, []names.Name{x}), syntax.SendN(x)}
	t2 := Trans{actions.NewIn(a, []names.Name{y}), syntax.SendN(y)}
	if TransKey(t1) != TransKey(t2) {
		t.Error("TransKey must identify alpha-equivalent symbolic inputs")
	}
	t3 := Trans{actions.NewIn(a, []names.Name{x}), syntax.SendN(a)}
	if TransKey(t1) == TransKey(t3) {
		t.Error("TransKey collision")
	}
}

// ---- Lemma 1: free-name monotonicity along transitions --------------------

func TestLemma1FreeNames(t *testing.T) {
	// For outputs and τ: fn(p') ⊆ fn(p) ∪ bn(α); receptions add the inputs.
	p := syntax.Group(
		syntax.Restrict(syntax.Send(a, []names.Name{z}, syntax.SendN(z)), z),
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x, b)),
	)
	for _, tr := range mustSteps(t, p) {
		switch tr.Act.Kind {
		case actions.Out:
			allowed := syntax.FreeNames(p).AddAll(tr.Act.BoundNames())
			if got := syntax.FreeNames(tr.Target); !got.Minus(allowed).Equal(names.NewSet()) {
				t.Errorf("Lemma 1(1) violated: fn(target)=%v ⊄ %v", got, allowed)
			}
		case actions.In:
			ground, tgt := Instantiate(tr, []names.Name{d})
			allowed := syntax.FreeNames(p).AddAll(ground.FreeNames())
			if got := syntax.FreeNames(tgt); !got.Minus(allowed).Equal(names.NewSet()) {
				t.Errorf("Lemma 1(2) violated: fn=%v ⊄ %v", got, allowed)
			}
		case actions.Tau:
			if got := syntax.FreeNames(tr.Target); !got.Minus(syntax.FreeNames(p)).Equal(names.NewSet()) {
				t.Errorf("Lemma 1(3) violated: fn grew on τ: %v", got)
			}
		}
	}
}

// ---- Remark 1 driver scenarios ---------------------------------------------

func TestRemark1Transitions(t *testing.T) {
	// p0 = āb, q0 = āb.c̄d. Both have exactly one visible output on a and no τ.
	p0 := syntax.SendN(a, b)
	q0 := syntax.Send(a, []names.Name{b}, syntax.SendN(c, d))
	for _, p := range []syntax.Proc{p0, q0} {
		ts := mustSteps(t, p)
		if len(ts) != 1 || !ts[0].Act.IsOutput() || ts[0].Act.Subj != a {
			t.Fatalf("%s: %v", syntax.String(p), ts)
		}
	}
	// νa p0 --τ--> (dead), νa q0 --τ--> νa c̄d which still barbs on c.
	np0 := syntax.Restrict(p0, a)
	nq0 := syntax.Restrict(q0, a)
	t0 := taus(mustSteps(t, np0))
	t1 := taus(mustSteps(t, nq0))
	if len(t0) != 1 || len(t1) != 1 {
		t.Fatal("both must take the internal step")
	}
	if ts := mustSteps(t, t0[0].Target); len(ts) != 0 {
		t.Fatalf("νa nil should be inert: %v", ts)
	}
	after := filter(mustSteps(t, t1[0].Target), actions.Out, c)
	if len(after) != 1 {
		t.Fatalf("νa c̄d must still emit on c: %v", mustSteps(t, t1[0].Target))
	}
}

// Example 1 smoke test: the cycle detector on a 2-cycle eventually signals o.
func TestCycleDetectorEdgeManagerSmoke(t *testing.T) {
	// Edge manager for edge (a,b) with private token u: broadcasts u on b;
	// listens on a; echoes on b; signals on o when its own token returns.
	// Here we hand-build the 2-cycle a->b->a wiring and check o is reachable.
	em := func(src, dst names.Name) syntax.Proc {
		u := names.Name("u")
		emit := syntax.Rec{Id: "Y", Params: []names.Name{"bb", "uu"},
			Body: syntax.Send("bb", []names.Name{"uu"}, syntax.Call{Id: "Y", Args: []names.Name{"bb", "uu"}}),
			Args: []names.Name{dst, u}}
		listen := syntax.Rec{Id: "X", Params: []names.Name{"oo", "aa", "bb", "uu"},
			Body: syntax.Recv("aa", []names.Name{"w"},
				syntax.If("uu", "w", syntax.SendN("oo"),
					syntax.Group(syntax.SendN("bb", "w"), syntax.Call{Id: "X", Args: []names.Name{"oo", "aa", "bb", "uu"}}))),
			Args: []names.Name{o, src, dst, u}}
		return syntax.Restrict(syntax.Group(emit, listen), u)
	}
	system := syntax.Group(em(a, b), em(b, a))
	// Search a few levels of the step graph for a state that barbs on o.
	found := searchBarb(t, system, o, 6)
	if !found {
		t.Fatal("cycle detector never signals on o for the 2-cycle")
	}
}

// searchBarb explores autonomous steps (outputs and τ) up to depth and
// reports whether some reachable state emits on the watch channel.
func searchBarb(t *testing.T, p syntax.Proc, watch names.Name, depth int) bool {
	t.Helper()
	seen := map[string]bool{}
	var rec func(q syntax.Proc, d int) bool
	rec = func(q syntax.Proc, d int) bool {
		k := syntax.Key(syntax.Simplify(q))
		if seen[k] {
			return false
		}
		seen[k] = true
		ts := mustSteps(t, q)
		for _, tr := range ts {
			if tr.Act.IsOutput() && tr.Act.Subj == watch {
				return true
			}
		}
		if d == 0 {
			return false
		}
		for _, tr := range ts {
			if tr.Act.IsStep() && rec(tr.Target, d-1) {
				return true
			}
		}
		return false
	}
	return rec(p, depth)
}

func TestStepsOnStrings(t *testing.T) {
	// Ensure transitions print sensibly (smoke for debugging helpers).
	p := syntax.Group(syntax.SendN(a, b), syntax.RecvN(a, x))
	for _, tr := range mustSteps(t, p) {
		if s := tr.String(); !strings.Contains(s, "-->") {
			t.Errorf("odd transition string: %q", s)
		}
	}
}

// TestCanonOut pins the extrusion convention: each bound name becomes the
// first FreshVariant("e") outside avoid ∪ fn(α), in order, in the label and
// the target alike, and a free output is left as it is.
func TestCanonOut(t *testing.T) {
	sys := NewSystem(nil)
	bound := syntax.Restrict(syntax.Send(a, []names.Name{x}, syntax.SendN(x)), x)
	ts, err := sys.Steps(bound)
	if err != nil || len(ts) != 1 || len(ts[0].Act.Bound) != 1 {
		t.Fatalf("Steps(%s) = %v, %v", syntax.String(bound), ts, err)
	}
	for _, c := range []struct {
		avoid names.Set
		want  names.Name
	}{{nil, "e·1"}, {names.NewSet("e·1"), "e·2"}} {
		got := CanonOut(ts[0], c.avoid)
		if len(got.Act.Bound) != 1 || got.Act.Bound[0] != c.want || got.Act.Objs[0] != c.want {
			t.Errorf("avoid %v: label %s, want %s extruded", c.avoid, got.Act, c.want)
		}
		if s := syntax.String(got.Target); s != string(c.want)+"!" {
			t.Errorf("avoid %v: target %s, want %s!", c.avoid, s, c.want)
		}
	}
	free, err := sys.Steps(syntax.SendN(a, b))
	if err != nil || len(free) != 1 {
		t.Fatalf("Steps(a!(b)) = %v, %v", free, err)
	}
	if got := CanonOut(free[0], nil); got.String() != free[0].String() {
		t.Errorf("a free output changed: %s", got)
	}
}
