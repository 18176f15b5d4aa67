package oracle

import (
	"context"
	"errors"
	"testing"

	"bpi/internal/parser"
)

// TestLedgerLawHoldsOnWitnessPairs runs ledger/roundtrip directly on pairs
// covering both verdicts and both modes: the full persist-reopen cycle must
// preserve every one (empty detail, no engine error).
func TestLedgerLawHoldsOnWitnessPairs(t *testing.T) {
	law := lawLedgerRoundtrip()
	env := NewEnv()
	pairs := [][2]string{
		{"a! | b!", "a!.b! + b!.a!"}, // related, strong and weak
		{"tau.a!", "a!"},             // related weak only
		{"a!", "b!"},                 // unrelated in both modes
		{"nu x.a!(x)", "nu y.a!(y)"}, // restriction + alpha-equivalence
		{"tau.a!(b) + tau.a!(c)", "tau.a!(c) + tau.a!(b)"},
	}
	for _, pq := range pairs {
		p, err := parser.Parse(pq[0])
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.Parse(pq[1])
		if err != nil {
			t.Fatal(err)
		}
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Fatalf("(%s, %s): engine error: %v", pq[0], pq[1], err)
		}
		if detail != "" {
			t.Errorf("(%s, %s): ledger/roundtrip violated: %s", pq[0], pq[1], detail)
		}
	}
}

// TestLedgerLawRegistered: the law is in the registry and selectable by name.
func TestLedgerLawRegistered(t *testing.T) {
	laws, err := LawByName([]string{"ledger/roundtrip"})
	if err != nil {
		t.Fatal(err)
	}
	if len(laws) != 1 || laws[0].Name != "ledger/roundtrip" {
		t.Fatalf("LawByName(ledger/roundtrip) = %v", laws)
	}
}

// TestLedgerLawSurvivesCancellation: a cancelled context is an engine error,
// never a violation.
func TestLedgerLawSurvivesCancellation(t *testing.T) {
	law := lawLedgerRoundtrip()
	env := NewEnv()
	p, err := parser.Parse("a! | b! | c!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a!.b!.c!")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	detail, cerr := law.Check(ctx, env, p, q)
	if detail != "" {
		t.Errorf("cancelled run reported a violation: %s", detail)
	}
	if cerr == nil || !errors.Is(cerr, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", cerr)
	}
}
