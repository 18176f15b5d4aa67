package equiv

import (
	"context"
	"errors"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/syntax"
)

// TestDecideContract pins what Decide promises for each of the five
// relations, strong and weak: the verdict does not depend on Certify, a
// certificate comes exactly when Certify is set, ~+ and ~c report no pair
// count and no Reason, and a canceled context gives an ErrCanceled. An
// unknown relation is an ErrRelation, and a related ~c truncated by
// MaxSubs carries no certificate.
func TestDecideContract(t *testing.T) {
	parse := func(src string) syntax.Proc {
		t.Helper()
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pairs := [][2]string{
		{"a! + a!", "a!"},
		{"tau.a!", "a!"},
		{"a?(x).x!", "a?(y).c!"},
		{"b? | b?(x)", "0"},
		{"tau.0", "0"}, // no free name: no relation's own loop checks ctx
	}
	ctx := context.Background()
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, rel := range cert.Relations {
		for _, weak := range []bool{false, true} {
			for _, pq := range pairs {
				q := Query{Rel: rel, Weak: weak, P: parse(pq[0]), Q: parse(pq[1])}
				name := (spec{rel, weak}).String() + " " + pq[0] + " vs " + pq[1]
				plain, err := newC().Decide(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				certified, err := newCertC().Decide(ctx, q)
				if err != nil {
					t.Fatalf("%s certified: %v", name, err)
				}
				if plain.Related != certified.Related {
					t.Errorf("%s: related %v without Certify, %v with it", name, plain.Related, certified.Related)
				}
				if plain.Cert != nil || certified.Cert == nil {
					t.Errorf("%s: certificate %v without Certify, %v with it", name, plain.Cert != nil, certified.Cert != nil)
				}
				if (rel == cert.RelOneStep || rel == cert.RelCongruence) && (plain.Pairs != 0 || plain.Reason != "") {
					t.Errorf("%s: pairs %d, reason %q; want none", name, plain.Pairs, plain.Reason)
				}
				var ec ErrCanceled
				if _, err := newC().Decide(canceled, q); !errors.As(err, &ec) || !errors.Is(err, context.Canceled) {
					t.Errorf("%s on a canceled context: %v, want an ErrCanceled", name, err)
				}
			}
		}
	}

	var er ErrRelation
	if _, err := newC().Decide(ctx, Query{Rel: "bisimilar", P: parse("a!"), Q: parse("a!")}); !errors.As(err, &er) || er.Rel != "bisimilar" {
		t.Errorf("unknown relation: %v, want an ErrRelation naming it", err)
	}

	// a!(b) + a!(b) ~c a!(b) under all four fusions of {a, b}; one is tried.
	q := Query{Rel: cert.RelCongruence, P: parse("a!(b) + a!(b)"), Q: parse("a!(b)"), MaxSubs: 1}
	r, err := newCertC().Decide(ctx, q)
	if err != nil || !r.Related || r.Cert != nil {
		t.Errorf("truncated ~c: related %v, certificate %v, err %v; want related without a certificate", r.Related, r.Cert != nil, err)
	}
}
