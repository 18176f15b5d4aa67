package syntax

import "testing"

// Right-nested sums and parallels must print flat, without redundant
// parentheses.
func TestPrintFlattensNestedSumAndPar(t *testing.T) {
	out := func(ch Name) Proc { return Prefix{Out{Ch: ch}, Nil{}} }
	sum3 := Sum{out("a"), Sum{out("b"), out("c")}}
	if s := String(sum3); s != "a! + b! + c!" {
		t.Fatalf("String(sum3) = %q, want %q", s, "a! + b! + c!")
	}
	par3 := Par{out("a"), Par{out("b"), out("c")}}
	if s := String(par3); s != "a! | b! | c!" {
		t.Fatalf("String(par3) = %q, want %q", s, "a! | b! | c!")
	}
}

// One rule-(11) unfolding must rewrite matching Calls into the recursion
// template through every node shape, leave non-matching Calls alone, and
// stop at an inner Rec that shadows the identifier.
func TestUnfoldRewritesThroughAllNodes(t *testing.T) {
	shadow := Rec{Id: "A", Params: nil, Body: Call{Id: "A"}}
	other := Rec{Id: "B", Params: nil, Body: Call{Id: "A"}}
	body := Sum{
		L: Prefix{Tau{}, Par{Call{Id: "A", Args: []Name{"x"}}, Call{Id: "C"}}},
		R: Res{X: "v", Body: Match{X: "a", Y: "b", Then: shadow, Else: other}},
	}
	r := Rec{Id: "A", Params: []Name{"x"}, Body: body, Args: []Name{"n"}}
	got := Unfold(r)

	tmpl := Rec{Id: "A", Params: []Name{"x"}, Body: body}
	wantL := Prefix{Tau{}, Par{
		Rec{Id: "A", Params: []Name{"x"}, Body: body, Args: []Name{"n"}},
		Call{Id: "C"},
	}}
	sum, ok := got.(Sum)
	if !ok {
		t.Fatalf("Unfold = %T, want Sum", got)
	}
	if !Equal(sum.L, wantL) {
		t.Fatalf("left arm = %s, want %s", String(sum.L), String(wantL))
	}
	res, ok := sum.R.(Res)
	if !ok {
		t.Fatalf("right arm = %T, want Res", sum.R)
	}
	m := res.Body.(Match)
	if !Equal(m.Then, shadow) {
		t.Fatalf("shadowing inner rec was rewritten: %s", String(m.Then))
	}
	wantElse := Rec{Id: "B", Params: nil, Body: tmpl, Args: nil}
	if gotRec := m.Else.(Rec); gotRec.Id != "B" {
		t.Fatalf("non-shadowing rec lost its id: %s", String(m.Else))
	} else if !Equal(gotRec.Body, wantElse.Body) {
		t.Fatalf("Call{A} under rec B not rewritten to the template: %s", String(gotRec.Body))
	}
}
