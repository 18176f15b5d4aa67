package oracle

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/parser"
	"bpi/internal/protocols"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// TestProtocolsConformHolds drives the protocols/conform law over enough
// seeds to sample a healthy and a fault-injected scenario of every
// algorithm family with overwhelming probability: every drawn scenario
// must pass (engines agree with the catalogue's expected verdict, all
// certificates verify).
func TestProtocolsConformHolds(t *testing.T) {
	law := lawProtocolsConform()
	env := NewEnv()
	algos := map[string]bool{}
	for seed := int64(0); seed < 24; seed++ {
		g := brand.New(seed, law.Config)
		p, q, tag := law.Gen(g)
		s, ok := protoScenarios()[protoKey(p, q)]
		if !ok {
			t.Fatalf("seed %d: generated pair %s is not a catalogue scenario", seed, tag)
		}
		algos[s.Algo] = true
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Fatalf("seed %d (%s): engine error: %v", seed, tag, err)
		}
		if detail != "" {
			t.Errorf("seed %d (%s): %s", seed, tag, detail)
		}
	}
	if len(algos) < 4 {
		t.Errorf("24 seeds only sampled %d algorithm families: %v", len(algos), algos)
	}
}

// TestProtocolsConformRegistered checks the law is in the registry under
// its documented name (the CLI's -laws flag and the CI bpifuzz job select
// it by this string).
func TestProtocolsConformRegistered(t *testing.T) {
	laws, err := LawByName([]string{"protocols/conform"})
	if err != nil || len(laws) != 1 {
		t.Fatalf("protocols/conform not registered: %v", err)
	}
	if laws[0].Doc == "" || laws[0].Gen == nil || laws[0].Check == nil {
		t.Error("protocols/conform registered without doc/gen/check")
	}
}

// TestProtocolsShrunkPairDegrades hands the law a pair that is NOT a
// catalogue scenario — the shape every shrink probe has — and checks it
// degrades to engine agreement instead of failing the expected-verdict
// clause: an equivalent non-catalogue pair passes, and a planted
// disagreement-shaped violation (a fault variant's pair, shrunken) still
// minimises to a small term pair.
func TestProtocolsShrunkPairDegrades(t *testing.T) {
	law := lawProtocolsConform()
	env := NewEnv()
	p := syntax.Send("a", nil, syntax.SendN("b"))
	detail, err := law.Check(context.Background(), env, p, p)
	if err != nil {
		t.Fatalf("engine error on trivial pair: %v", err)
	}
	if detail != "" {
		t.Errorf("identical non-catalogue pair reported a violation: %s", detail)
	}

	s, ok := protocols.ByName("gossip/line-3/crashed-2")
	if !ok {
		t.Fatal("catalogue lost gossip/line-3/crashed-2")
	}
	pred := func(cp, cq syntax.Proc) bool {
		r, err := protocols.NewChecker().Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: cp, Q: cq})
		return err == nil && !r.Related
	}
	if !pred(s.Impl, s.Spec) {
		t.Fatal("fault variant is not step-distinguished — broken setup")
	}
	sp, sq, spent := ShrinkPair(s.Impl, s.Spec, pred, 0)
	if !pred(sp, sq) {
		t.Fatal("shrinker lost the violation")
	}
	before := syntax.Size(s.Impl) + syntax.Size(s.Spec)
	after := syntax.Size(sp) + syntax.Size(sq)
	if after >= before {
		t.Errorf("pair did not shrink (%d -> %d nodes in %d evals): %s / %s",
			before, after, spent, syntax.String(sp), syntax.String(sq))
	}
}

// TestProtoKeyStableUnderParse guarantees the curated corpus cases keep
// their teeth: a catalogue pair that goes through String → parse → String
// (exactly what CheckCase does to a .case file) must still be recognised
// as that scenario, so the expected-verdict clause applies to corpus
// replays and not just freshly generated pairs.
func TestProtoKeyStableUnderParse(t *testing.T) {
	for _, s := range protocols.Catalogue() {
		p, err := parser.Parse(syntax.String(s.Impl))
		if err != nil {
			t.Fatalf("%s: impl does not reparse: %v", s.Name, err)
		}
		q, err := parser.Parse(syntax.String(s.Spec))
		if err != nil {
			t.Fatalf("%s: spec does not reparse: %v", s.Name, err)
		}
		if _, ok := protoScenarios()[protoKey(p, q)]; !ok {
			t.Errorf("%s: reparsed pair no longer matches its catalogue key", s.Name)
		}
	}
}
