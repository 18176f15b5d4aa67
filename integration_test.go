package bpi_test

// End-to-end integration: the shipped example programs go from concrete
// syntax through the semantics, the machine and the equivalence checkers.

import (
	"context"
	"os"
	"testing"

	bpi "bpi"
)

func loadProgram(t *testing.T, path string) *bpi.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := bpi.ParseProgram(string(src))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return prog
}

func TestIntegrationTokenRing(t *testing.T) {
	prog := loadProgram(t, "testdata/token_ring.bpi")
	sys := bpi.NewSystem(prog.Env)
	res, err := bpi.Run(sys, prog.Main, bpi.RunOptions{MaxSteps: 9, KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 9 {
		t.Fatalf("ring stalled after %d steps", res.Steps)
	}
	// The token circulates a → b → c → a → …
	want := []bpi.Name{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i, ev := range res.Trace {
		if ev.Act.Subj != want[i] {
			t.Fatalf("trace[%d] = %s, want subject %s", i, ev, want[i])
		}
	}
}

func TestIntegrationElectionProgram(t *testing.T) {
	prog := loadProgram(t, "testdata/election.bpi")
	sys := bpi.NewSystem(prog.Env)
	always, witness, err := bpi.AlwaysReachesBarb(sys, prog.Main, "lead", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !always {
		t.Fatalf("election can stall at %v", bpi.Format(witness))
	}
	// Exactly one leader per run.
	runs, err := bpi.RunMany(sys, prog.Main, 12, 3, bpi.RunOptions{MaxSteps: 30, KeepTrace: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for ri, r := range runs {
		leads := 0
		for _, ev := range r.Trace {
			if ev.Act.IsOutput() && ev.Act.Subj == "lead" {
				leads++
			}
		}
		if leads != 1 {
			t.Fatalf("run %d elected %d leaders", ri, leads)
		}
	}
}

func TestIntegrationMobilityProgram(t *testing.T) {
	prog := loadProgram(t, "testdata/mobility.bpi")
	sys := bpi.NewSystem(prog.Env)
	got, err := bpi.CanReachBarb(sys, prog.Main, "res", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("the secret never crossed the dynamically learnt channel")
	}
	// And the relay is essential: without a sender the result never appears.
	relayOnly := bpi.Call("Relay", "a", "res")
	got, err = bpi.CanReachBarb(sys, relayOnly, "res", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("result appeared without the private dialogue")
	}
}

func TestIntegrationParseCheckProve(t *testing.T) {
	// Full round: parse two terms, check congruence semantically, prove
	// syntactically, and confirm the printer round-trips.
	ch := bpi.NewChecker(nil)
	pr := bpi.NewProver(nil)
	lhs := bpi.MustParse("a!(b) + a!(b)")
	rhs := bpi.MustParse("a!(b)")
	sem, err := ch.Decide(context.Background(), bpi.Query{Rel: bpi.RelCongruence, P: lhs, Q: rhs})
	if err != nil {
		t.Fatal(err)
	}
	syn, err := pr.Decide(lhs, rhs)
	if err != nil {
		t.Fatal(err)
	}
	if !sem.Related || !syn {
		t.Fatalf("S2 failed: semantic=%v syntactic=%v", sem.Related, syn)
	}
	back := bpi.MustParse(bpi.Format(lhs))
	if !bpi.AlphaEqual(back, lhs) {
		t.Error("printer/parser round trip failed")
	}
}
