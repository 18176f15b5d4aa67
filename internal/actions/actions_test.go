package actions

import (
	"testing"

	"bpi/internal/names"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	x names.Name = "x"
)

func TestConstructorsAndPredicates(t *testing.T) {
	tau := NewTau()
	in := NewIn(a, []names.Name{x})
	out := NewOut(a, []names.Name{b})
	bout := Act{Kind: Out, Subj: a, Objs: []names.Name{x, b}, Bound: []names.Name{x}}
	disc := Act{Kind: Discard, Subj: a}

	if !tau.IsTau() || tau.IsOutput() || tau.IsInput() {
		t.Error("tau predicates wrong")
	}
	if !in.IsInput() || in.IsStep() {
		t.Error("input predicates wrong")
	}
	if !out.IsOutput() || !out.IsStep() {
		t.Error("output predicates wrong")
	}
	if !bout.IsOutput() || len(bout.Bound) != 1 {
		t.Error("bound output predicates wrong")
	}
	if disc.Kind != Discard || disc.IsStep() {
		t.Error("discard predicates wrong")
	}
	if !tau.IsStep() {
		t.Error("tau must be a step")
	}
}

// TestFreeBoundNames re-derives Definition 1's name functions.
func TestFreeBoundNames(t *testing.T) {
	cases := []struct {
		act      Act
		free, bd names.Set
	}{
		{NewTau(), names.NewSet(), names.NewSet()},
		{NewIn(a, []names.Name{b, c}), names.NewSet(a, b, c), names.NewSet()},
		{NewOut(a, []names.Name{b}), names.NewSet(a, b), names.NewSet()},
		{Act{Kind: Out, Subj: a, Objs: []names.Name{x, b}, Bound: []names.Name{x}}, names.NewSet(a, b), names.NewSet(x)},
		{Act{Kind: Discard, Subj: a}, names.NewSet(a), names.NewSet()},
	}
	for i, cs := range cases {
		if got := cs.act.FreeNames(); !got.Equal(cs.free) {
			t.Errorf("case %d: fn = %v, want %v", i, got, cs.free)
		}
		if got := cs.act.BoundNames(); !got.Equal(cs.bd) {
			t.Errorf("case %d: bn = %v, want %v", i, got, cs.bd)
		}
		want := cs.free.Union(cs.bd)
		if got := cs.act.Names(); !got.Equal(want) {
			t.Errorf("case %d: n = %v, want %v", i, got, want)
		}
	}
}

// TestRenameRespectsBinders: RenameAll renames a bound output's binder
// together with its occurrence, so the label keeps its binding structure.
func TestRenameRespectsBinders(t *testing.T) {
	bout := Act{Kind: Out, Subj: a, Objs: []names.Name{x, b}, Bound: []names.Name{x}}
	all := bout.RenameAll(names.Subst{a: c, x: c})
	if all.Subj != c || all.Objs[1] != b {
		t.Errorf("RenameAll renamed the wrong free names: %s", all)
	}
	if all.Objs[0] != c || all.Bound[0] != c {
		t.Errorf("RenameAll missed binder: %s", all)
	}
}

func TestString(t *testing.T) {
	cases := map[string]Act{
		"tau":         NewTau(),
		"a?(x)":       NewIn(a, []names.Name{x}),
		"a!(b)":       NewOut(a, []names.Name{b}),
		"a!":          NewOut(a, nil),
		"(^x)a!(x,b)": {Kind: Out, Subj: a, Objs: []names.Name{x, b}, Bound: []names.Name{x}},
		"a:":          {Kind: Discard, Subj: a},
	}
	for want, act := range cases {
		if got := act.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}
