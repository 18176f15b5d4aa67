package axioms

import (
	"strings"
	"testing"

	"bpi/internal/syntax"
)

// TestCondStrings pins the rendering of the condition grammar (the strings
// appear in prover traces and error messages).
func TestCondStrings(t *testing.T) {
	cases := []struct {
		c    Cond
		want string
	}{
		{True{}, "true"},
		{Eq{a, b}, "[a=b]"},
		{Neq(a, b), "¬[a=b]"},
		{False(), "¬true"},
		{And{Eq{a, b}, Neq(a, c)}, "[a=b]∧¬[a=c]"},
	}
	for _, cse := range cases {
		if got := cse.c.String(); got != cse.want {
			t.Errorf("String(%#v) = %q, want %q", cse.c, got, cse.want)
		}
	}
}

// TestProverTraceAndBounds checks the derivation-outline surface (Tracing /
// TraceLines) and the explicit MaxNames/MaxSteps overrides.
func TestProverTraceAndBounds(t *testing.T) {
	pr := NewProver(nil)
	pr.Tracing = true
	pr.MaxNames = 4
	pr.MaxSteps = 50000
	p := syntax.Choice(syntax.SendN(a, b), syntax.TauP(syntax.PNil))
	ok, err := pr.Decide(p, p)
	if err != nil || !ok {
		t.Fatalf("Decide(p,p) = %v, %v", ok, err)
	}
	lines := pr.TraceLines()
	if len(lines) == 0 {
		t.Fatal("Tracing produced no trace lines")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "world") {
		t.Errorf("trace mentions no world specialisation:\n%s", joined)
	}
	// A fresh silent prover keeps no trace.
	quiet := NewProver(nil)
	if ok, err := quiet.Decide(p, p); err != nil || !ok {
		t.Fatalf("quiet Decide = %v, %v", ok, err)
	}
	if len(quiet.TraceLines()) != 0 {
		t.Error("silent prover recorded trace lines")
	}
}
