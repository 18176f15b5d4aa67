package names

import "testing"

func TestSetOps(t *testing.T) {
	s := NewSet("a", "b", "c")
	u := NewSet("b", "d")
	if !s.Contains("a") || s.Contains("d") {
		t.Fatal("membership wrong")
	}
	if got := s.Union(u); !got.Equal(NewSet("a", "b", "c", "d")) {
		t.Errorf("union = %v", got)
	}
	if got := s.Minus(u); !got.Equal(NewSet("a", "c")) {
		t.Errorf("minus = %v", got)
	}
	if s.String() != "{a, b, c}" {
		t.Errorf("String() = %q", s.String())
	}
}

func TestSetAddNil(t *testing.T) {
	var s Set
	s = s.Add("a")
	if !s.Contains("a") {
		t.Fatal("Add on nil set lost element")
	}
	var s2 Set
	s2 = s2.AddAll(NewSet("b"))
	if !s2.Contains("b") {
		t.Fatal("AddAll on nil set lost element")
	}
}

func TestSetSortedDeterministic(t *testing.T) {
	s := NewSet("z", "a", "m")
	got := s.Sorted()
	want := []Name{"a", "m", "z"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted() = %v", got)
		}
	}
}

func TestSubstApply(t *testing.T) {
	s := Single("a", "b")
	if s.Apply("a") != "b" || s.Apply("c") != "c" {
		t.Fatal("Apply wrong")
	}
	if !Single("a", "a").IsIdentity() {
		t.Fatal("x/x should be identity")
	}
	var nilS Subst
	if nilS.Apply("a") != "a" {
		t.Fatal("nil subst must be identity")
	}
}

func TestSubstFromSlices(t *testing.T) {
	s := FromSlices([]Name{"x", "y"}, []Name{"y", "x"})
	if s.Apply("x") != "y" || s.Apply("y") != "x" {
		t.Fatalf("swap broken: %v", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on arity mismatch")
		}
	}()
	FromSlices([]Name{"x"}, []Name{})
}

func TestSubstApplySliceAliasing(t *testing.T) {
	in := []Name{"a", "b"}
	s := Single("a", "z")
	out := s.ApplySlice(in)
	if &in[0] == &out[0] {
		t.Fatal("ApplySlice must not alias input when changing it")
	}
	if in[0] != "a" {
		t.Fatal("input mutated")
	}
	id := Subst{}
	if got := id.ApplySlice(in); &got[0] != &in[0] {
		t.Error("identity ApplySlice should return input")
	}
}

func TestSubstDomainCodomain(t *testing.T) {
	s := Subst{"a": "b", "c": "c"}
	if !s.Domain().Equal(NewSet("a")) {
		t.Errorf("Domain = %v", s.Domain())
	}
	if !s.Codomain().Equal(NewSet("b")) {
		t.Errorf("Codomain = %v", s.Codomain())
	}
}

func TestSubstWithout(t *testing.T) {
	s := Subst{"a": "b", "c": "d"}
	w := s.Without("a")
	if w.Apply("a") != "a" || w.Apply("c") != "d" {
		t.Fatalf("Without wrong: %v", w)
	}
	if s.Apply("a") != "b" {
		t.Fatal("Without mutated receiver")
	}
	if got := s.Without("zz"); got.Apply("a") != "b" {
		t.Fatal("Without on absent name changed behaviour")
	}
}

func TestSubstString(t *testing.T) {
	s := Subst{"b": "x", "a": "y", "c": "c"}
	if got := s.String(); got != "[a↦y, b↦x]" {
		t.Errorf("String() = %q", got)
	}
}

func TestAllFusionsCount(t *testing.T) {
	dom := []Name{"a", "b"}
	cod := []Name{"a", "b", "c"}
	subs := AllFusions(dom, cod)
	if len(subs) != 9 {
		t.Fatalf("expected 3^2=9 fusions, got %d", len(subs))
	}
	seen := map[string]bool{}
	for _, s := range subs {
		k := string(s.Apply("a")) + "/" + string(s.Apply("b"))
		if seen[k] {
			t.Fatalf("duplicate fusion %v", s)
		}
		seen[k] = true
	}
}

func TestAllFusionsEmptyDomain(t *testing.T) {
	subs := AllFusions(nil, []Name{"a"})
	if len(subs) != 1 || !subs[0].IsIdentity() {
		t.Fatalf("empty domain should yield the identity only: %v", subs)
	}
}

// TestTuples pins the odometer order (position 0 most significant) that
// input payloads are enumerated in, and that the tuples share no storage.
func TestTuples(t *testing.T) {
	got := Tuples([]Name{"a", "b"}, 2)
	want := [][]Name{{"a", "a"}, {"a", "b"}, {"b", "a"}, {"b", "b"}}
	if len(got) != len(want) {
		t.Fatalf("Tuples = %v, want %v", got, want)
	}
	for i := range want {
		if len(got[i]) != 2 || got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("Tuples = %v, want %v", got, want)
		}
	}
	_ = append(got[0], "c") // must not write into got[1]
	if got[1][0] != "a" || got[1][1] != "b" {
		t.Errorf("appending to one tuple changed the next: %v", got[1])
	}
	if got := Tuples([]Name{"a"}, 0); len(got) != 1 || got[0] != nil {
		t.Errorf("Tuples(u, 0) = %v, want the one empty tuple", got)
	}
	if got := Tuples(nil, 1); len(got) != 0 {
		t.Errorf("Tuples(nil, 1) = %v, want none", got)
	}
}
