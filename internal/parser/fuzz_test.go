package parser

import (
	"testing"

	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// TestPrintParseCanonRoundTrip is the full round-trip property feeding the
// oracle and the fuzzer: for generated terms — including equivalence-
// preserving and equivalence-breaking mutants, whose shapes (ν-wrapped
// fresh names, injected matches, duplicated branches) differ from what the
// generator emits directly — Parse(String(p)) must land in p's
// alpha-equivalence class, i.e. have the same Key.
func TestPrintParseCanonRoundTrip(t *testing.T) {
	g := brand.New(2026, brand.Default())
	for i := 0; i < 300; i++ {
		p := g.Term()
		switch i % 3 {
		case 1:
			p = g.MutateEquiv(p)
		case 2:
			p = g.MutateBreak(p)
		}
		src := syntax.String(p)
		back, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(String(p)) failed for %q: %v", src, err)
		}
		if !syntax.AlphaEqual(p, back) {
			t.Fatalf("round trip left the alpha-class:\n in  = %s\n out = %s", src, syntax.String(back))
		}
	}
}

// FuzzParseRoundTrip feeds arbitrary source strings to the parser. Inputs
// that do not parse are out of scope (the parser may reject them however it
// likes, but must not panic — the fuzz engine catches panics by itself);
// for every input that does parse, printing and reparsing must stay within
// the same alpha-equivalence class, and printing must be idempotent from
// then on.
//
// Run with:
//
//	go test -run '^$' -fuzz FuzzParseRoundTrip -fuzztime 30s ./internal/parser
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"0",
		"a!",
		"a!(b,c).a?(x,y).x!(y)",
		"tau.a! + b?",
		"nu x (x! | x?(y).y!)",
		"[a=b](a!, b!) | rec X. tau.X",
		"A(a, b)",
		"(a! + b!).0 | nu z z!",
	}
	// Printed forms of generated terms keep the corpus anchored to shapes
	// the rest of the suite actually produces (fresh-marker names included).
	g := brand.New(7, brand.Default())
	for i := 0; i < 8; i++ {
		seeds = append(seeds, syntax.String(g.Term()))
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			t.Skip()
		}
		printed := syntax.String(p)
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed form %q of parsed input %q does not reparse: %v", printed, src, err)
		}
		if !syntax.AlphaEqual(p, back) {
			t.Fatalf("print/parse left the alpha-class:\n src   = %q\n print = %q\n again = %q",
				src, printed, syntax.String(back))
		}
		if again := syntax.String(back); again != printed {
			t.Fatalf("printing is not idempotent after one round trip:\n first  = %q\n second = %q", printed, again)
		}
	})
}
