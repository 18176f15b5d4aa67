package axioms

import (
	"testing"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// headIns is the soundness guard of the catalogue's conditional (H)
// instance: it must over-approximate the head-listening channels across
// BOTH match branches, strip restricted names, and refuse (known=false)
// anything whose unfoldings it would have to chase.
func TestHeadInsApproximation(t *testing.T) {
	in := func(ch names.Name, cont syntax.Proc) syntax.Proc {
		return syntax.Recv(ch, []names.Name{"x"}, cont)
	}
	cases := []struct {
		name  string
		p     syntax.Proc
		want  []names.Name
		known bool
	}{
		{"nil", syntax.PNil, nil, true},
		{"input head", in("a", syntax.PNil), []names.Name{"a"}, true},
		{"output head ignores its continuation", syntax.Send("a", nil, in("b", syntax.PNil)), nil, true},
		{"tau head", syntax.TauP(in("b", syntax.PNil)), nil, true},
		{"sum unions", syntax.Choice(in("a", syntax.PNil), in("b", syntax.PNil)), []names.Name{"a", "b"}, true},
		{"par unions", syntax.Group(in("a", syntax.PNil), in("b", syntax.PNil)), []names.Name{"a", "b"}, true},
		{"match takes BOTH branches", syntax.If("u", "v", in("a", syntax.PNil), in("b", syntax.PNil)), []names.Name{"a", "b"}, true},
		{"restriction strips its binder", syntax.Restrict(in("a", syntax.PNil), "a"), nil, true},
		{"restriction keeps others", syntax.Restrict(in("a", syntax.PNil), "z"), []names.Name{"a"}, true},
		{"call refused", syntax.Call{Id: "D"}, nil, false},
		{"rec refused", syntax.Rec{Id: "D", Body: syntax.PNil}, nil, false},
		{"refusal propagates through res", syntax.Restrict(syntax.Call{Id: "D"}, "z"), nil, false},
		{"refusal propagates through sum left", syntax.Choice(syntax.Call{Id: "D"}, syntax.PNil), nil, false},
		{"refusal propagates through sum right", syntax.Choice(syntax.PNil, syntax.Call{Id: "D"}), nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, known := headIns(tc.p)
			if known != tc.known {
				t.Fatalf("known = %t, want %t", known, tc.known)
			}
			if !known {
				return
			}
			if !got.Equal(names.NewSet(tc.want...)) {
				t.Errorf("headIns = %v, want %v", got.Sorted(), tc.want)
			}
		})
	}
}

// The Cond interface is sealed: exactly these four constructors.
func TestCondSealed(t *testing.T) {
	for _, c := range []Cond{True{}, Eq{"a", "b"}, Not{C: True{}}, And{L: True{}, R: True{}}} {
		c.isCond()
	}
}
