package equiv

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
)

// TestErrorSurfaces pins the text and unwrap behaviour of the checker's
// inconclusive-verdict errors — callers branch on these.
func TestErrorSurfaces(t *testing.T) {
	eb := ErrBudget{What: "pairs"}
	if !strings.Contains(eb.Error(), "pairs") {
		t.Errorf("ErrBudget text %q does not name the budget", eb.Error())
	}
	ec := ErrCanceled{Cause: context.DeadlineExceeded}
	if !strings.Contains(ec.Error(), "canceled") {
		t.Errorf("ErrCanceled text %q", ec.Error())
	}
	if !errors.Is(ec, context.DeadlineExceeded) {
		t.Error("ErrCanceled does not unwrap to its context cause")
	}
}

// TestClosureBudgetNamesItsKind pins the budget error of each memoised
// closure: one closure of one term is past a MaxClosure of 1, and the
// error names the kind of move it follows.
func TestClosureBudgetNamesItsKind(t *testing.T) {
	for _, tc := range []struct {
		rel, src, what string
	}{
		{cert.RelBarbed, "tau.a!", "tau closure"},
		{cert.RelStep, "a!.b!", "autonomous closure"},
	} {
		p, err := parser.Parse(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		c := NewChecker(nil)
		c.MaxClosure = 1
		_, err = c.Decide(context.Background(), Query{Rel: tc.rel, Weak: true, P: p, Q: p})
		var eb ErrBudget
		if !errors.As(err, &eb) || eb.What != tc.what {
			t.Errorf("weak %s of %s: got %v, want ErrBudget{%q}", tc.rel, tc.src, err, tc.what)
		}
	}
}
