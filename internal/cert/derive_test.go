package cert

import (
	"testing"

	"bpi/internal/names"
	"bpi/internal/semantics"
)

// TestDeriveListsEachDerivativeOnce: transitions whose targets Simplify
// identifies reach one vterm, and derive lists it once, so the relation is
// probed, and MaxWork charged, once for it. b! | b! has two b! outputs and
// two autonomous steps to b!, tau.a! | tau.a! two τs to a! | tau.a!, and
// c?(x).[x=c]b! + c?(y).b! two receptions of c(c) that Simplify maps to
// b!. Against itself, strongly, each side answers with the same list.
func TestDeriveListsEachDerivativeOnce(t *testing.T) {
	for _, tc := range []struct {
		term string
		weak bool
		c    challenge
	}{
		{"b! | b!", false, challenge{kind: "out", label: "b!"}},
		{"b! | b!", false, challenge{kind: "step"}},
		{"b! | b!", true, challenge{kind: "out", label: "b!"}},
		{"tau.a! | tau.a!", false, challenge{kind: "tau"}},
		{"c?(x).[x=c]b! + c?(y).b!", false, challenge{kind: "react", ch: "c", payload: []names.Name{"c"}}},
		{"c?(x).[x=c]b! + c?(y).b!", false, challenge{kind: "in", ch: "c", payload: []names.Name{"c"}}},
	} {
		ck := &checker{s: &vsys{sys: semantics.NewSystem(nil), byKey: map[string]*vterm{}, closure: 64, maxWork: 1000}}
		p, err := ck.s.parse(tc.term)
		if err != nil {
			t.Fatal(err)
		}
		movers, answers, err := ck.derive(RelLabelled, tc.weak, p, p, p.free, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		if len(movers) != 1 || len(answers) != 1 {
			t.Errorf("%s, weak=%v, %s %s: %d movers and %d answers, want 1 and 1",
				tc.term, tc.weak, tc.c.kind, tc.c.label+string(tc.c.ch), len(movers), len(answers))
		}
	}
}
