package parser

import (
	"testing"

	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// TestLexAllocatesOnce pins one allocation per lex call: tokenBound sizes
// the token slice before the scan. Growing it by append took 5, 7 and 8
// allocations on these terms.
func TestLexAllocatesOnce(t *testing.T) {
	for _, src := range []string{
		"a?(x).x! | b!",
		syntax.String(stress.Rings(3, 2)),
		syntax.String(stress.Mesh(8)),
	} {
		if n := testing.AllocsPerRun(100, func() { lex(src) }); n != 1 {
			t.Errorf("lex(%.40q…) made %.0f allocations, want 1", src, n)
		}
	}
}

// TestTokenBound checks that tokenBound bounds the tokens lex emits on
// input that reaches every lexer case, and equals their count when the
// input has no comment, newline or blank.
func TestTokenBound(t *testing.T) {
	for _, tc := range []struct {
		src   string
		exact bool
	}{
		{"", true},
		{"01", true},
		{"a1b'(x·1)!.0+[c=d]e?|f,g", true},
		{"P(a) = a!;Q = 0", false},
		{"a! # c d e\n\n b!\r\t", false},
		{"é?(ü)$", true},
	} {
		n, b := len(lex(tc.src)), tokenBound(tc.src)
		if n > b || (tc.exact && n != b) {
			t.Errorf("%q: lex emits %d tokens, tokenBound says %d", tc.src, n, b)
		}
	}
}
