package parser

import (
	"errors"
	"os"
	"strings"
	"testing"

	"bpi/internal/names"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	x names.Name = "x"
	y names.Name = "y"
)

func mustParse(t *testing.T, src string) syntax.Proc {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want syntax.Proc
	}{
		{"0", syntax.PNil},
		{"a!", syntax.SendN(a)},
		{"a!()", syntax.SendN(a)},
		{"a!(b,c)", syntax.SendN(a, b, c)},
		{"a?(x)", syntax.RecvN(a, x)},
		{"a?", syntax.RecvN(a)},
		{"tau.a!", syntax.TauP(syntax.SendN(a))},
		{"a! + b!", syntax.Choice(syntax.SendN(a), syntax.SendN(b))},
		{"a! | b!", syntax.Group(syntax.SendN(a), syntax.SendN(b))},
		{"nu x.a!(x)", syntax.Restrict(syntax.SendN(a, x), x)},
		{"nu x,y.a!(x,y)", syntax.Restrict(syntax.SendN(a, x, y), x, y)},
		{"[x=y]a!", syntax.If(x, y, syntax.SendN(a), syntax.PNil)},
		{"[x=y](a!, b!)", syntax.If(x, y, syntax.SendN(a), syntax.SendN(b))},
		{"A(a,b)", syntax.Call{Id: "A", Args: []names.Name{a, b}}},
		{"a!(b).c?(x)", syntax.Send(a, []names.Name{b}, syntax.RecvN(c, x))},
		{"a?(x).(b! + c!)", syntax.Recv(a, []names.Name{x}, syntax.Choice(syntax.SendN(b), syntax.SendN(c)))},
		{"(a! + b!) | c!", syntax.Group(syntax.Choice(syntax.SendN(a), syntax.SendN(b)), syntax.SendN(c))},
		{"(rec A(x).x!.A(x))(a)", syntax.Rec{Id: "A", Params: []names.Name{x},
			Body: syntax.Send(x, nil, syntax.Call{Id: "A", Args: []names.Name{x}}),
			Args: []names.Name{a}}},
	}
	for _, cse := range cases {
		got := mustParse(t, cse.src)
		if !syntax.Equal(got, cse.want) {
			t.Errorf("Parse(%q) = %s, want %s", cse.src, syntax.String(got), syntax.String(cse.want))
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	// + binds loosest: a! | b! + c! ≡ (a!|b!) + c!.
	got := mustParse(t, "a! | b! + c!")
	if _, ok := got.(syntax.Sum); !ok {
		t.Fatalf("precedence wrong: %s", syntax.String(got))
	}
	// Prefix binds tightest: tau.a! + b! ≡ (tau.a!) + b!.
	got = mustParse(t, "tau.a! + b!")
	s, ok := got.(syntax.Sum)
	if !ok {
		t.Fatalf("shape: %s", syntax.String(got))
	}
	if _, ok := s.L.(syntax.Prefix); !ok {
		t.Fatalf("prefix did not bind tightly: %s", syntax.String(got))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"a",
		"a!(",
		"a?(x",
		"[x=]a!",
		"nu .a!",
		"A(",
		"(a!",
		"a! + ",
		"a?(x,x)",         // duplicate parameters
		"(rec a(x).0)(a)", // lowercase rec identifier
		"a! b!",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestRoundTripPrinted(t *testing.T) {
	g := brand.New(321, brand.Default())
	for i := 0; i < 200; i++ {
		p := g.Term()
		src := syntax.String(p)
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("round-trip parse of %q: %v", src, err)
		}
		// Fresh-marker names print as-is; compare up to alpha since binder
		// names survive verbatim.
		if !syntax.AlphaEqual(p, back) {
			t.Fatalf("round trip changed term:\n in  = %s\n out = %s", src, syntax.String(back))
		}
	}
}

func TestParseProgram(t *testing.T) {
	src := `
# the forwarder example
let Fwd(in, out) = in?(x).out!(x).Fwd(in, out)
let Two(in, out) = Fwd(in, out) | Fwd(in, out)

Two(a, b) | a!(c)
`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Env) != 2 {
		t.Fatalf("definitions: %v", prog.Env.Idents())
	}
	if prog.Main == nil {
		t.Fatal("main term missing")
	}
	d, _ := prog.Env.Lookup("Fwd")
	if len(d.Params) != 2 {
		t.Fatalf("Fwd params: %v", d.Params)
	}
}

func TestParseProgramMultilineTerm(t *testing.T) {
	src := `let A(x) = x?(y).
	y!.
	A(x)
A(a)`
	prog, err := ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Main == nil || len(prog.Env) != 1 {
		t.Fatalf("program shape wrong: %v main=%v", prog.Env.Idents(), prog.Main)
	}
}

func TestParseProgramErrors(t *testing.T) {
	bad := []string{
		"let a(x) = 0",                     // lowercase definition
		"let A(x) 0",                       // missing =
		"let A(x) = 0; 0; 0",               // two mains... second main unreachable
		"let C(x) = y!",                    // free name outside the parameters
		"let A(x) = x!.A()",                // a call of the wrong arity
		"let A(x) = B(x)\nlet B(x) = A(x)", // an unguarded cycle
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) should fail", src)
		}
	}
}

func TestFreshMarkerNamesParse(t *testing.T) {
	// Machine-generated fresh variants round-trip through the parser.
	p, err := Parse("a" + names.FreshMarker + "1!")
	if err != nil {
		t.Fatalf("marker name rejected: %v", err)
	}
	if syntax.FreeNames(p).Len() != 1 {
		t.Fatal("marker name lost")
	}
}

func TestParseProgramFiles(t *testing.T) {
	files := []string{
		"../../testdata/token_ring.bpi",
		"../../testdata/election.bpi",
		"../../testdata/mobility.bpi",
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		prog, err := ParseProgram(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if prog.Main == nil {
			t.Errorf("%s: no main term", f)
		}
	}
}

// TestParseDepthLimit: every nesting construct parses at exactly MaxDepth
// levels and fails with ErrTooDeep one level deeper, instead of overflowing
// the goroutine stack on deeper input.
func TestParseDepthLimit(t *testing.T) {
	for _, c := range []struct{ name, open, leaf, close string }{
		{"parentheses", "(", "0", ")"},
		{"prefixes", "a!.", "a!", ""},
		{"nu", "nu x.", "0", ""},
		{"match", "[a=b]", "0", ""},
	} {
		nested := func(levels int) string {
			return strings.Repeat(c.open, levels-1) + c.leaf + strings.Repeat(c.close, levels-1)
		}
		if _, err := Parse(nested(MaxDepth)); err != nil {
			t.Errorf("%s at the limit: %v", c.name, err)
		}
		if _, err := Parse(nested(MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s past the limit: err = %v, want ErrTooDeep", c.name, err)
		}
	}
}
