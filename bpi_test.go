package bpi_test

import (
	"context"
	"testing"

	bpi "bpi"
)

func TestFacadeQuickstart(t *testing.T) {
	p := bpi.MustParse("a!(b) | a?(x).x! | a?(y).y!")
	sys := bpi.NewSystem(nil)
	ts, err := sys.Steps(p)
	if err != nil {
		t.Fatal(err)
	}
	outs := 0
	for _, tr := range ts {
		if tr.Act.IsOutput() {
			outs++
		}
	}
	if outs != 1 {
		t.Fatalf("expected one broadcast, got %d (%v)", outs, ts)
	}
}

func TestFacadeChecker(t *testing.T) {
	ch := bpi.NewChecker(nil)
	res, err := ch.Decide(context.Background(), bpi.Query{Rel: bpi.RelLabelled, P: bpi.MustParse("a?"), Q: bpi.MustParse("b?")})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Related {
		t.Error("noisy law lost through the facade")
	}
}

func TestFacadeProver(t *testing.T) {
	pr := bpi.NewProver(nil)
	ok, err := pr.Decide(bpi.MustParse("a! + a!"), bpi.MustParse("a!"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("S2 not provable through the facade")
	}
}

func TestFacadeRun(t *testing.T) {
	res, err := bpi.Run(nil, bpi.MustParse("a!.b!.c!"), bpi.RunOptions{KeepTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 3 || !res.Quiescent {
		t.Fatalf("run: %+v", res)
	}
}

func TestFacadeBuilders(t *testing.T) {
	p := bpi.Group(
		bpi.SendN("a", "b"),
		bpi.Recv("a", []bpi.Name{"x"}, bpi.SendN("x")),
	)
	q := bpi.MustParse("a!(b) | a?(x).x!")
	if !bpi.AlphaEqual(p, q) {
		t.Errorf("builder term %s differs from parsed %s", bpi.Format(p), bpi.Format(q))
	}
	if got := bpi.FreeNames(p); len(got) != 2 {
		t.Errorf("free names: %v", got)
	}
}

func TestFacadeExplore(t *testing.T) {
	g, err := bpi.Explore(bpi.NewSystem(nil), []bpi.Proc{bpi.MustParse("a!.b!")}, bpi.ExploreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 3 {
		t.Fatalf("graph: %v", g)
	}
}

func TestFacadeReachability(t *testing.T) {
	ok, err := bpi.CanReachBarb(nil, bpi.MustParse("tau.a!"), "a", 0)
	if err != nil || !ok {
		t.Fatalf("reachability: %v %v", ok, err)
	}
	always, _, err := bpi.AlwaysReachesBarb(nil, bpi.MustParse("tau.a! + tau"), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	if always {
		t.Error("avoidable barb reported inevitable")
	}
}
