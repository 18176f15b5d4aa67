package machine

import (
	"testing"

	"bpi/internal/names"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	x names.Name = "x"
)

func TestRunLinear(t *testing.T) {
	p := syntax.Send(a, nil, syntax.Send(b, nil, syntax.SendN(c)))
	res, err := Run(nil, p, Options{KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Quiescent || res.Steps != 3 {
		t.Fatalf("result: %+v", res)
	}
	want := []names.Name{a, b, c}
	for i, ev := range res.Trace {
		if ev.Act.Subj != want[i] {
			t.Fatalf("trace[%d] = %s", i, ev)
		}
	}
}

func TestRunStopOnBarb(t *testing.T) {
	p := syntax.Send(a, nil, syntax.Send(b, nil, syntax.SendN(c)))
	res, err := Run(nil, p, Options{StopOnBarb: []names.Name{b}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || res.StopEvent.Act.Subj != b {
		t.Fatalf("result: %+v", res)
	}
	if res.Steps != 2 {
		t.Fatalf("steps = %d", res.Steps)
	}
}

func TestRunBroadcastDelivery(t *testing.T) {
	// āb ‖ a(x).x̄: one broadcast then the forwarded output.
	p := syntax.Group(
		syntax.SendN(a, b),
		syntax.Recv(a, []names.Name{x}, syntax.SendN(x)),
	)
	res, err := Run(nil, p, Options{KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 2 || res.Trace[1].Act.Subj != b {
		t.Fatalf("broadcast run: %+v", res)
	}
}

func TestRunMaxSteps(t *testing.T) {
	loop := syntax.Rec{Id: "A", Params: []names.Name{x},
		Body: syntax.TauP(syntax.Call{Id: "A", Args: []names.Name{x}}),
		Args: []names.Name{a}}
	res, err := Run(nil, loop, Options{MaxSteps: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 25 || res.Quiescent || res.Stopped {
		t.Fatalf("divergent run: %+v", res)
	}
}

func TestSchedulers(t *testing.T) {
	// ā + b̄ resolves differently under different schedulers.
	p := syntax.Choice(syntax.SendN(a), syntax.SendN(b))
	r1, err := Run(nil, p, Options{Scheduler: FirstScheduler{}, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trace[0].Act.Subj != a {
		t.Fatalf("first scheduler picked %s", r1.Trace[0])
	}
	seen := names.NewSet()
	for seed := int64(0); seed < 16; seed++ {
		r, err := Run(nil, p, Options{Scheduler: NewRandomScheduler(seed), KeepTrace: true})
		if err != nil {
			t.Fatal(err)
		}
		seen = seen.Add(r.Trace[0].Act.Subj)
	}
	if !seen.Contains(a) || !seen.Contains(b) {
		t.Errorf("random scheduler never explored both branches: %v", seen)
	}
}

func TestCanReachBarb(t *testing.T) {
	p := syntax.TauP(syntax.Choice(syntax.SendN(a), syntax.TauP(syntax.SendN(b))))
	for _, cse := range []struct {
		watch names.Name
		want  bool
	}{{a, true}, {b, true}, {c, false}} {
		got, err := CanReachBarb(nil, p, cse.watch, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != cse.want {
			t.Errorf("CanReachBarb(%s) = %v", cse.watch, got)
		}
	}
}

func TestAlwaysReachesBarb(t *testing.T) {
	// τ.ā: inevitable.
	p := syntax.TauP(syntax.SendN(a))
	ok, _, err := AlwaysReachesBarb(nil, p, a, 0)
	if err != nil || !ok {
		t.Fatalf("inevitable barb missed: %v %v", ok, err)
	}
	// τ.ā + τ: avoidable by the right branch.
	q := syntax.Choice(syntax.TauP(syntax.SendN(a)), syntax.TauP(syntax.PNil))
	ok, witness, err := AlwaysReachesBarb(nil, q, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("avoidable barb reported inevitable")
	}
	if witness == nil {
		t.Fatal("no counterexample state")
	}
	// Divergence avoiding the barb: (rec A(x). τ.A(x))(c) + τ.ā.
	loop := syntax.Rec{Id: "A", Params: []names.Name{x},
		Body: syntax.TauP(syntax.Call{Id: "A", Args: []names.Name{x}}),
		Args: []names.Name{c}}
	d := syntax.Choice(syntax.TauP(loop), syntax.TauP(syntax.SendN(a)))
	ok, _, err = AlwaysReachesBarb(nil, d, a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("divergent avoidance not detected")
	}
}

func TestRunManyAndStats(t *testing.T) {
	p := syntax.Choice(syntax.TauP(syntax.SendN(a)), syntax.TauP(syntax.SendN(b)))
	rs, err := RunMany(nil, p, 32, 7, Options{StopOnBarb: []names.Name{a}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	st := Summarise(rs)
	if st.Runs != 32 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Stopped == 0 || st.Stopped == 32 {
		t.Errorf("expected a mix of stopped/finished runs: %v", st)
	}
	if st.Stopped+st.Quiescent != 32 {
		t.Errorf("every run should stop or quiesce: %v", st)
	}
	if st.String() == "" {
		t.Error("empty summary")
	}
}

func TestRunWithEnv(t *testing.T) {
	env := syntax.Env{}.Define("Ping", []names.Name{"ch"},
		syntax.Send("ch", nil, syntax.Call{Id: "Ping", Args: []names.Name{"ch"}}))
	sys := semantics.NewSystem(env)
	res, err := Run(sys, syntax.Call{Id: "Ping", Args: []names.Name{a}}, Options{MaxSteps: 10, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 10 || res.Trace[9].Act.Subj != a {
		t.Fatalf("env run: %+v", res)
	}
}
