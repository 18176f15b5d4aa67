package oracle

import (
	"context"
	"testing"

	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// FuzzDecideAgree is the native go-fuzz twin of the axioms/decide-agree
// law: the coverage-guided engine mutates the generator seed, and for every
// seed the §5 prover must agree with the semantic congruence checker in
// both directions. Run with:
//
//	go test -run '^$' -fuzz FuzzDecideAgree -fuzztime 30s ./internal/oracle
func FuzzDecideAgree(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40, mix(2026)} {
		f.Add(seed)
	}
	env := NewEnv()
	law := lawDecideAgree()
	f.Fuzz(func(t *testing.T, seed int64) {
		g := brand.New(mix(seed), law.Config)
		p, q, tag := law.Gen(g)
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Skip() // engine budget exhausted on a pathological draw
		}
		if detail != "" {
			t.Errorf("seed %d [%s]: %s\n p = %s\n q = %s",
				seed, tag, detail, syntax.String(p), syntax.String(q))
		}
	})
}

// FuzzProtocolsConform is the native go-fuzz twin of the protocols/conform
// law: every mutated seed draws a scenario from the protocol catalogue and
// all engines must reproduce its expected conformance verdict with
// verifying certificates. Run with:
//
//	go test -run '^$' -fuzz FuzzProtocolsConform -fuzztime 30s ./internal/oracle
func FuzzProtocolsConform(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 33} {
		f.Add(seed)
	}
	env := NewEnv()
	law := lawProtocolsConform()
	f.Fuzz(func(t *testing.T, seed int64) {
		g := brand.New(mix(seed), law.Config)
		p, q, tag := law.Gen(g)
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Skip() // engine budget exhausted
		}
		if detail != "" {
			t.Errorf("seed %d [%s]: %s\n p = %s\n q = %s",
				seed, tag, detail, syntax.String(p), syntax.String(q))
		}
	})
}
