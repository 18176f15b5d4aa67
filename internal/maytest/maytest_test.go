package maytest

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
)

func TestMayBasic(t *testing.T) {
	// ā may be observed by a().ω̄; b̄ may not.
	o := syntax.Recv(a, nil, syntax.SendN(DefaultSuccess))
	got, err := May(nil, syntax.SendN(a), o, DefaultSuccess, 0)
	if err != nil || !got {
		t.Fatalf("ā must satisfy a().ω̄: %v %v", got, err)
	}
	got, err = May(nil, syntax.SendN(b), o, DefaultSuccess, 0)
	if err != nil || got {
		t.Fatalf("b̄ must not satisfy a().ω̄: %v %v", got, err)
	}
}

func TestTraceObserversCount(t *testing.T) {
	// Over 2 channels at depth 2: 1 + 2 + 4 = 7 observers.
	obs := TraceObservers([]names.Name{a, b}, 2, DefaultSuccess)
	if len(obs) != 7 {
		t.Fatalf("observers: %d", len(obs))
	}
	// None may be satisfied by nil except the empty-trace observer ω̄.
	sat := 0
	for _, o := range obs {
		ok, err := May(nil, syntax.PNil, o, DefaultSuccess, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			sat++
		}
	}
	if sat != 1 {
		t.Fatalf("nil satisfies %d observers, want 1 (the trivial one)", sat)
	}
}

func TestDistinguishSeparatesOutputs(t *testing.T) {
	obs := TraceObservers([]names.Name{a, b}, 2, DefaultSuccess)
	v, err := Distinguish(nil, syntax.SendN(a), syntax.SendN(b), obs, DefaultSuccess, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Distinguisher == nil {
		t.Fatal("ā and b̄ must be may-distinguished")
	}
}

// The paper's §6 motivating pair: ā.(b̄+c̄) and ā.b̄+ā.c̄ are NOT bisimilar,
// yet no broadcast observer can tell them apart (an observer cannot supply
// co-actions, so it sees only traces — and the trace sets coincide).
func TestMayIdentifiesBisimulationDistinctPair(t *testing.T) {
	p := syntax.Send(a, nil, syntax.Choice(syntax.SendN(b), syntax.SendN(c)))
	q := syntax.Choice(
		syntax.Send(a, nil, syntax.SendN(b)),
		syntax.Send(a, nil, syntax.SendN(c)),
	)
	ch := equiv.NewChecker(nil)
	res, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if res.Related {
		t.Fatal("precondition: the pair must not be (even weakly) bisimilar")
	}
	obs := TraceObservers([]names.Name{a, b, c}, 3, DefaultSuccess)
	v, err := Distinguish(nil, p, q, obs, DefaultSuccess, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Distinguisher != nil {
		t.Fatalf("trace observer %s separated a trace-equivalent pair",
			syntax.String(v.Distinguisher))
	}
	v, err = Distinguish(nil, q, p, obs, DefaultSuccess, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Distinguisher != nil {
		t.Fatalf("reverse direction separated: %s", syntax.String(v.Distinguisher))
	}
	if v.Tried != len(obs) {
		t.Fatalf("tried %d of %d observers", v.Tried, len(obs))
	}
}

func TestMayPreorderIsCoarserThanBisim(t *testing.T) {
	// Bisimilar processes are never may-distinguished (soundness direction,
	// on samples).
	pairs := [][2]syntax.Proc{
		{syntax.Choice(syntax.SendN(a), syntax.PNil), syntax.SendN(a)},
		{syntax.Group(syntax.SendN(a), syntax.SendN(b)), syntax.Group(syntax.SendN(b), syntax.SendN(a))},
	}
	obs := TraceObservers([]names.Name{a, b}, 2, DefaultSuccess)
	for _, pq := range pairs {
		v, err := Distinguish(nil, pq[0], pq[1], obs, DefaultSuccess, 0)
		if err != nil {
			t.Fatal(err)
		}
		if v.Distinguisher != nil {
			t.Errorf("bisimilar pair separated by %s", syntax.String(v.Distinguisher))
		}
	}
}
