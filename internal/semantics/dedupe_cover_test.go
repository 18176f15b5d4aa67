package semantics

import (
	"testing"

	"bpi/internal/parser"
	"bpi/internal/syntax"
)

// dedupe on a list with every transition repeated, in derivation order,
// must collapse it to exactly the list Steps returns.
func TestDedupeMatchesSteps(t *testing.T) {
	p, err := parser.Parse("a!.b! + a!.b! + c!")
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSystem(nil).Steps(p) // already deduped
	if err != nil {
		t.Fatal(err)
	}
	got := dedupe(append(append([]Trans(nil), want...), want...))
	if len(got) != len(want) {
		t.Fatalf("dedupe kept %d transitions, Steps has %d", len(got), len(want))
	}
	for i := range got {
		if TransKey(got[i]) != TransKey(want[i]) {
			t.Errorf("transition %d: %s vs %s", i, got[i], want[i])
		}
	}
}

// Instantiate's contract violations are caller bugs and must panic loudly.
func TestInstantiatePanics(t *testing.T) {
	p, err := parser.Parse("a?(x).x!")
	if err != nil {
		t.Fatal(err)
	}
	ts, err := NewSystem(nil).Steps(p)
	if err != nil || len(ts) != 1 {
		t.Fatalf("steps: %v %v", ts, err)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("arity mismatch", func() { Instantiate(ts[0], nil) })
	out, _ := parser.Parse("b!")
	outTs, err := NewSystem(nil).Steps(out)
	if err != nil || len(outTs) != 1 {
		t.Fatalf("steps: %v %v", outTs, err)
	}
	mustPanic("non-input", func() { Instantiate(outTs[0], []syntax.Name{"c"}) })
}
