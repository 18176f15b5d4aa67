package refine

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

// TestCertifiedVerdictsCrossCheck is the certificate-level leg of the
// refine-vs-equiv cross-validation: on every pair both engines must agree on
// the verdict AND both certificates — produced by entirely different state
// representations — must replay against the same independent verifier.
func TestCertifiedVerdictsCrossCheck(t *testing.T) {
	a, b, c := names.Name("a"), names.Name("b"), names.Name("c")
	x := names.Name("x")
	pairs := [][2]syntax.Proc{
		{syntax.SendN(a), syntax.SendN(a)},
		{syntax.SendN(a), syntax.SendN(b)},
		{syntax.TauP(syntax.SendN(a)), syntax.SendN(a)},
		{syntax.Choice(syntax.SendN(b), syntax.TauP(syntax.SendN(c))),
			syntax.Choice(syntax.SendN(b), syntax.Send(b, nil, syntax.SendN(c)))},
		{syntax.SendN(a, b), syntax.Send(a, []names.Name{b}, syntax.SendN(c, "d"))},
		{syntax.Group(syntax.SendN(a), syntax.SendN(b)), syntax.Group(syntax.SendN(b), syntax.SendN(a))},
		{syntax.Restrict(syntax.SendN(x, a), x), syntax.PNil},
		{syntax.Choice(syntax.TauP(syntax.SendN(a)), syntax.TauP(syntax.PNil)), syntax.TauP(syntax.SendN(a))},
	}
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	for _, pq := range pairs {
		g := graphFor(t, pq[0], pq[1])
		ctxt := syntax.String(pq[0]) + " vs " + syntax.String(pq[1])

		for _, rel := range []string{"step", "barbed"} {
			var crt *cert.Certificate
			var ok bool
			var err error
			var er equiv.Result
			if rel == "step" {
				crt, ok, err = CertifyStrongStep(g)
				if err == nil {
					er, err = ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: pq[0], Q: pq[1]})
				}
			} else {
				crt, ok, err = CertifyStrongBarbed(g)
				if err == nil {
					er, err = ch.Decide(context.Background(), equiv.Query{Rel: cert.RelBarbed, P: pq[0], Q: pq[1]})
				}
			}
			if err != nil {
				t.Fatalf("%s (%s): %v", ctxt, rel, err)
			}
			if ok != er.Related {
				t.Fatalf("%s (%s): refine says %v, equiv says %v", ctxt, rel, ok, er.Related)
			}
			if crt == nil || er.Cert == nil {
				t.Fatalf("%s (%s): missing certificate (refine=%v, equiv=%v)", ctxt, rel, crt != nil, er.Cert != nil)
			}
			if verr := cert.Verify(crt); verr != nil {
				data, _ := crt.Marshal()
				t.Fatalf("%s (%s): refine certificate rejected: %v\n%s", ctxt, rel, verr, data)
			}
			if verr := cert.Verify(er.Cert); verr != nil {
				t.Fatalf("%s (%s): equiv certificate rejected: %v", ctxt, rel, verr)
			}
		}
	}
}

// TestRefineCertificateTamperRejected mutates a partition certificate: the
// verifier must notice a dropped pair even though the partition itself was
// sound.
func TestRefineCertificateTamperRejected(t *testing.T) {
	a := names.Name("a")
	g := graphFor(t, syntax.TauP(syntax.TauP(syntax.SendN(a))), syntax.TauP(syntax.TauP(syntax.SendN(a))))
	crt, ok, err := CertifyStrongStep(g)
	if err != nil || !ok {
		t.Fatalf("certify: %v, %v", ok, err)
	}
	if err := cert.Verify(crt); err != nil {
		t.Fatalf("baseline rejected: %v", err)
	}
	if len(crt.Pairs) == 0 {
		t.Fatal("no pairs to drop")
	}
	// Drop the first listed pair, the root pair.
	crt.Pairs = crt.Pairs[1:]
	if cert.Verify(crt) == nil {
		t.Error("certificate with a dropped pair verified")
	}
}
