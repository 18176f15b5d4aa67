package names

import (
	"errors"
	"reflect"
	"strconv"
	"testing"
)

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

// TestEachTuple pins the odometer order (position 0 most significant) that
// input payloads and fusions are walked in, that each tuple is a fresh
// slice, the one empty tuple at k = 0, none over an empty universe, and
// that an error from f stops the walk and is returned.
func TestEachTuple(t *testing.T) {
	walk := func(u []Name, k int, stopAt int) ([][]Name, error) {
		var got [][]Name
		err := EachTuple(u, k, func(tp []Name) error {
			got = append(got, tp)
			if len(got) == stopAt {
				return errStop
			}
			return nil
		})
		return got, err
	}
	got, err := walk([]Name{"a", "b"}, 2, 0)
	want := [][]Name{{"a", "a"}, {"a", "b"}, {"b", "a"}, {"b", "b"}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("EachTuple({a,b}, 2) = %v, %v; want %v", got, err, want)
	}
	_ = append(got[0], "c") // must not write into got[1]
	if got[1][0] != "a" || got[1][1] != "b" {
		t.Errorf("appending to one tuple changed the next: %v", got[1])
	}
	if got, err := walk([]Name{"a"}, 0, 0); err != nil || len(got) != 1 || got[0] != nil {
		t.Errorf("EachTuple(u, 0) = %v, %v; want the one empty tuple", got, err)
	}
	if got, err := walk(nil, 0, 0); err != nil || len(got) != 1 || got[0] != nil {
		t.Errorf("EachTuple(nil, 0) = %v, %v; want the one empty tuple", got, err)
	}
	if got, err := walk(nil, 1, 0); err != nil || len(got) != 0 {
		t.Errorf("EachTuple(nil, 1) = %v, %v; want none", got, err)
	}
	got, err = walk([]Name{"a", "b", "c"}, 3, 5)
	if !errors.Is(err, errStop) || len(got) != 5 || !reflect.DeepEqual(got[4], []Name{"a", "b", "b"}) {
		t.Errorf("stopped walk = %v, %v; want 5 tuples ending a b b and errStop", got, err)
	}
}

var errStop = errors.New("stop")

// TestUniverse pins the instantiation universe: fn sorted, then the first
// k reservoir names outside fn, skipping one fn already holds.
func TestUniverse(t *testing.T) {
	w := func(i int) Name { return Name("w" + FreshMarker + strconv.Itoa(i)) }
	cases := []struct {
		fn   Set
		k    int
		want []Name
	}{
		{NewSet("b", "a"), 0, []Name{"a", "b"}},
		{NewSet("b", "a"), 2, []Name{"a", "b", w(1), w(2)}},
		{nil, 1, []Name{w(1)}},
		{nil, 0, []Name{}},
		{NewSet("a", w(1)), 2, []Name{"a", w(1), w(2), w(3)}},
	}
	for _, c := range cases {
		if got := Universe(c.fn, c.k); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Universe(%v, %d) = %v, want %v", c.fn, c.k, got, c.want)
		}
	}
	fn := NewSet("a")
	Universe(fn, 3)
	if fn.Len() != 1 {
		t.Errorf("Universe changed its fn to %v", fn)
	}
}
