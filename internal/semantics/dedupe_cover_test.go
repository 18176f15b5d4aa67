package semantics

import (
	"testing"

	"bpi/internal/parser"
	"bpi/internal/syntax"
)

// The exported Dedupe must behave exactly like the dedupe Steps applies,
// and it must not mutate its argument (callers may keep raw pre-dedupe
// lists).
func TestDedupeExportedMatchesSteps(t *testing.T) {
	p, err := parser.Parse("a!.b! + a!.b! + c!")
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(nil)
	want, err := sys.Steps(p) // already deduped
	if err != nil {
		t.Fatal(err)
	}
	// Raw duplicates in derivation order: Dedupe must collapse them to the
	// Steps list, and leave the input slice intact.
	raw := append(append([]Trans(nil), want...), want...)
	rawLen := len(raw)
	got := Dedupe(raw)
	if len(raw) != rawLen {
		t.Fatal("Dedupe mutated its argument")
	}
	if len(got) != len(want) {
		t.Fatalf("Dedupe kept %d transitions, Steps has %d", len(got), len(want))
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
