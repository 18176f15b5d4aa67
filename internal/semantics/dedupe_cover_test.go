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
	got := new(scratch).dedupe(append(append([]Trans(nil), want...), want...))
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

// A derivation buffer goes back to the pool holding no Proc, not even in
// the slots past its final length that a composition's operands used.
func TestScratchClearedBeforePooling(t *testing.T) {
	p, err := parser.Parse("a! | nu c.(b! | c!)")
	if err != nil {
		t.Fatal(err)
	}
	sc := new(scratch)
	if _, err := sc.derive(NewSystem(nil), p); err != nil {
		t.Fatal(err)
	}
	if sc.used <= len(sc.trans) {
		t.Fatalf("the buffer held at most %d transitions and ends with %d; want it to have shrunk", sc.used, len(sc.trans))
	}
	putScratch(sc)
	for i, tr := range sc.trans[:cap(sc.trans)] {
		if tr.Target != nil || tr.Act.Subj != "" {
			t.Fatalf("slot %d still holds %s", i, tr)
		}
	}
}
