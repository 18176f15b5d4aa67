package names

import "testing"

// Coverage of the small Set/Subst conveniences the engines use indirectly.

func TestSetSliceHelpers(t *testing.T) {
	var s Set // nil zero value: AddSlice must allocate
	s = s.AddSlice([]Name{"a", "b", "b"})
	if s.Len() != 2 || !s.Contains("a") || !s.Contains("b") {
		t.Fatalf("AddSlice: %v", s)
	}
	if !s.ContainsAny([]Name{"z", "b"}) {
		t.Error("ContainsAny missed a member")
	}
	if s.ContainsAny([]Name{"z", "y"}) || s.ContainsAny(nil) {
		t.Error("ContainsAny invented a member")
	}
	s.Remove("b")
	if s.Len() != 1 || s.Contains("b") {
		t.Errorf("Remove left %v", s)
	}
	s.Remove("never-there") // no-op, must not panic
}

func TestSetEqual(t *testing.T) {
	cases := []struct {
		a, b Set
		want bool
	}{
		{NewSet("a", "b"), NewSet("b", "a"), true},
		{NewSet("a"), NewSet("a", "b"), false}, // length mismatch
		{NewSet("a", "c"), NewSet("a", "b"), false},
		{nil, NewSet(), true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: Equal = %t, want %t", i, got, c.want)
		}
	}
}

func TestSubstIsIdentity(t *testing.T) {
	if !(Subst{}).IsIdentity() || !(Subst{"a": "a"}).IsIdentity() {
		t.Error("trivial substitutions not identity")
	}
	if (Subst{"a": "b"}).IsIdentity() {
		t.Error("a↦b reported as identity")
	}
}

func TestFromSlicesDuplicateOlds(t *testing.T) {
	// Simultaneous semantics: the first binding wins for a duplicated old,
	// even when the later pair is trivial.
	s := FromSlices([]Name{"a", "a"}, []Name{"b", "a"})
	if s.Apply("a") != "b" {
		t.Errorf("duplicate old: a ↦ %q, want b", s.Apply("a"))
	}
	defer func() {
		if recover() == nil {
			t.Error("unequal slice lengths did not panic")
		}
	}()
	FromSlices([]Name{"a"}, nil)
}
