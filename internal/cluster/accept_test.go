package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/syntax"
)

// decide produces an honestly certified verdict plus the pair key of the
// query, i.e. exactly what a truthful peer would hand back.
func decide(t *testing.T, rel, psrc, qsrc string, weak bool) (v *EquivVerdict, key string) {
	t.Helper()
	p, q := mustParse(t, psrc), mustParse(t, qsrc)
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	var r equiv.Result
	var err error
	switch rel {
	case cert.RelLabelled:
		r, err = ch.LabelledCtx(context.Background(), p, q, weak)
	case cert.RelCongruence:
		r.Cert, r.Related, err = ch.CongruenceCert(p, q, weak)
	default:
		t.Fatalf("decide: relation %q not covered", rel)
	}
	if err != nil {
		t.Fatal(err)
	}
	if r.Cert == nil {
		t.Fatal("certifying checker returned no certificate")
	}
	raw, err := json.Marshal(r.Cert)
	if err != nil {
		t.Fatal(err)
	}
	return &EquivVerdict{Related: r.Related, Pairs: r.Pairs, Reason: r.Reason, Certificate: raw},
		ledger.QueryKey(rel, weak, p, q)
}

func mustParse(t *testing.T, src string) syntax.Proc {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestVerifyAcceptHonestVerdicts(t *testing.T) {
	for _, tc := range []struct {
		rel  string
		p, q string
		weak bool
	}{
		{cert.RelLabelled, "a! | b!", "a!.b! + b!.a!", false},
		{cert.RelLabelled, "a?(x).x!", "a?(y).y!", false},
		{cert.RelLabelled, "a!", "b!", false}, // negative verdicts must be acceptable too
		{cert.RelLabelled, "tau.a!", "a!", true},
		// The fusion a↦b fires the match, so the ~c key keeps it.
		{cert.RelCongruence, "[a=b]c!", "0", false},
	} {
		v, key := decide(t, tc.rel, tc.p, tc.q, tc.weak)
		crt, err := VerifyAccept(nil, key, v)
		if err != nil {
			t.Fatalf("%s ~ %s: honest verdict rejected: %v", tc.p, tc.q, err)
		}
		if crt == nil || crt.Related != v.Related {
			t.Fatalf("%s ~ %s: accepted certificate drifted: %+v", tc.p, tc.q, crt)
		}
		// The swapped query is the same unordered pair.
		swapped := ledger.QueryKey(tc.rel, tc.weak, mustParse(t, tc.q), mustParse(t, tc.p))
		if _, err := VerifyAccept(nil, swapped, v); err != nil {
			t.Fatalf("%s ~ %s: swapped orientation rejected: %v", tc.p, tc.q, err)
		}
	}
}

// TestVerifyAcceptFailClosed table-tests every rejection path: each kind of
// lie or damage must be refused, never accepted with a shrug.
func TestVerifyAcceptFailClosed(t *testing.T) {
	v, key := decide(t, cert.RelLabelled, "a! | b!", "a!.b! + b!.a!", false)
	p, q := mustParse(t, "a! | b!"), mustParse(t, "a!.b! + b!.a!")

	t.Run("nil verdict", func(t *testing.T) {
		if _, err := VerifyAccept(nil, key, nil); err == nil {
			t.Fatal("accepted a nil verdict")
		}
	})
	t.Run("no certificate", func(t *testing.T) {
		bare := *v
		bare.Certificate = nil
		if _, err := VerifyAccept(nil, key, &bare); err == nil {
			t.Fatal("accepted an uncertified verdict")
		}
	})
	t.Run("wrong relation claimed", func(t *testing.T) {
		if _, err := VerifyAccept(nil, ledger.QueryKey(cert.RelBarbed, false, p, q), v); err == nil {
			t.Fatal("accepted a labelled certificate for a barbed query")
		}
	})
	t.Run("wrong mode claimed", func(t *testing.T) {
		if _, err := VerifyAccept(nil, ledger.QueryKey(cert.RelLabelled, true, p, q), v); err == nil {
			t.Fatal("accepted a strong certificate for a weak query")
		}
	})
	t.Run("flipped verdict", func(t *testing.T) {
		flipped := *v
		flipped.Related = !flipped.Related
		if _, err := VerifyAccept(nil, key, &flipped); err == nil {
			t.Fatal("accepted a verdict its certificate contradicts")
		}
	})
	t.Run("different pair", func(t *testing.T) {
		_, other := decide(t, cert.RelLabelled, "c!", "c!", false)
		if _, err := VerifyAccept(nil, other, v); err == nil {
			t.Fatal("accepted a certificate about a different pair")
		}
	})
	t.Run("simplified congruence pair", func(t *testing.T) {
		// [a=b]c! and 0 simplify alike, but differ under the fusion a↦b:
		// a ~c certificate about one is no answer for the other.
		cg, _ := decide(t, cert.RelCongruence, "[a=b]c!", "0", false)
		if _, err := VerifyAccept(nil, ledger.QueryKey(cert.RelCongruence, false, mustParse(t, "0"), mustParse(t, "0")), cg); err == nil {
			t.Fatal("accepted a [a=b]c! ~c 0 certificate for the pair (0, 0)")
		}
	})
	t.Run("truncated bytes", func(t *testing.T) {
		torn := *v
		torn.Certificate = v.Certificate[:len(v.Certificate)/2]
		if _, err := VerifyAccept(nil, key, &torn); err == nil {
			t.Fatal("accepted a truncated certificate")
		}
	})
	t.Run("forged positive verdict", func(t *testing.T) {
		// A negative pair whose verdict AND certificate both claim related:
		// internally consistent lies must still die at the verifier.
		neg, nkey := decide(t, cert.RelLabelled, "a!", "b!", false)
		forged := *neg
		forged.Related = true
		forged.Certificate = bytes.Replace(neg.Certificate,
			[]byte(`"related":false`), []byte(`"related":true`), 1)
		if !bytes.Contains(forged.Certificate, []byte(`"related":true`)) {
			// The field may be omitted when false; inject it instead.
			forged.Certificate = bytes.Replace(neg.Certificate,
				[]byte(`"relation":"labelled"`), []byte(`"relation":"labelled","related":true`), 1)
		}
		if _, err := VerifyAccept(nil, nkey, &forged); err == nil {
			t.Fatal("accepted a forged positive verdict")
		}
	})
}
