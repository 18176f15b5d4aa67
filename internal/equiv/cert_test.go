package equiv

import (
	"context"
	"slices"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func newCertC() *Checker {
	ch := NewChecker(nil)
	ch.Certify = true
	return ch
}

// certPairs is a small zoo spanning the interesting shapes: equal pairs,
// τ-divergent pairs, barb mismatches, bound outputs, mixed-arity listeners
// and discard-set differences (the ~ vs ~+ separator of Remark 4).
func certPairs() [][2]syntax.Proc {
	recv := syntax.RecvN(a, x)
	send := syntax.SendN(a, b)
	return [][2]syntax.Proc{
		{send, send},
		{syntax.Group(send, syntax.PNil), send},
		{syntax.TauP(send), send},
		{syntax.TauP(send), syntax.TauP(syntax.SendN(a, c))},
		{send, syntax.SendN(c, b)},
		{recv, syntax.RecvN(b, x)},
		{recv, syntax.Choice(recv, syntax.RecvN(b, y))},
		{syntax.Restrict(syntax.SendN(x, a), x), syntax.PNil},
		{syntax.Choice(syntax.TauP(send), syntax.TauP(syntax.PNil)), syntax.TauP(send)},
		{syntax.Group(recv, send), syntax.Group(send, recv)},
		// Simplify drops a match on distinct free names, which the fusion
		// a↦b fires: both pairs simplify to equal terms yet are ≁c.
		{syntax.If(a, b, syntax.SendN(c), syntax.PNil), syntax.PNil},
		{syntax.If(a, b, syntax.SendN(c), syntax.SendN(d)), syntax.SendN(d)},
	}
}

func verifyCert(t *testing.T, crt *cert.Certificate, related bool, ctxt string) {
	t.Helper()
	if crt == nil {
		t.Fatalf("%s: no certificate emitted", ctxt)
	}
	if crt.Related != related {
		t.Fatalf("%s: certificate says related=%v, verdict %v", ctxt, crt.Related, related)
	}
	if err := cert.Verify(crt); err != nil {
		data, _ := crt.Marshal()
		t.Fatalf("%s: certificate rejected: %v\n%s", ctxt, err, data)
	}
}

func TestPairRelationCertificates(t *testing.T) {
	checkCertificates(t, cert.RelLabelled, cert.RelBarbed, cert.RelStep)
}

func TestOneStepAndCongruenceCertificates(t *testing.T) {
	checkCertificates(t, cert.RelOneStep, cert.RelCongruence)
}

// checkCertificates replays the certificate of every certPairs pair under
// each of rels, strong and weak, and checks that a checker without Certify
// gives the same verdict. A congruence certificate names the input terms,
// not their simplified forms.
func checkCertificates(t *testing.T, rels ...string) {
	t.Helper()
	for _, weak := range []bool{false, true} {
		ch, plain := newCertC(), newC()
		for _, pq := range certPairs() {
			for _, rel := range rels {
				q := Query{Rel: rel, Weak: weak, P: pq[0], Q: pq[1]}
				r, err := ch.Decide(context.Background(), q)
				ctxt := rel + " " + syntax.String(pq[0]) + " vs " + syntax.String(pq[1])
				if weak {
					ctxt = "weak " + ctxt
				}
				if err != nil {
					t.Fatalf("%s: %v", ctxt, err)
				}
				verifyCert(t, r.Cert, r.Related, ctxt)
				if u, err := plain.Decide(context.Background(), q); err != nil || u.Related != r.Related {
					t.Fatalf("%s: certified verdict %v, uncertified %v (err %v)", ctxt, r.Related, u.Related, err)
				}
				if rel == cert.RelCongruence && (r.Cert.P != syntax.String(pq[0]) || r.Cert.Q != syntax.String(pq[1])) {
					t.Fatalf("%s: certificate names %s vs %s, not the input terms", ctxt, r.Cert.P, r.Cert.Q)
				}
			}
		}
	}
}

// TestMutatedCertificatesRejected pins the verifier's independence: tampering
// with sound certificates must be detected.
func TestMutatedCertificatesRejected(t *testing.T) {
	ch := newCertC()
	p := syntax.TauP(syntax.SendN(a, b))
	q := syntax.Choice(syntax.TauP(syntax.SendN(a, b)), syntax.TauP(syntax.SendN(a, b)))
	pos, err := ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if !pos.Related || pos.Cert == nil {
		t.Fatalf("want a positive certificate, got related=%v", pos.Related)
	}
	verifyCert(t, pos.Cert, true, "baseline positive")

	t.Run("dropped pair", func(t *testing.T) {
		m := clone(t, pos.Cert)
		m.Pairs = m.Pairs[:len(m.Pairs)-1]
		if cert.Verify(m) == nil {
			t.Error("certificate with a dropped pair verified")
		}
	})
	t.Run("repointed pair", func(t *testing.T) {
		// Pair a non-root term with 0, to which only 0 is bisimilar.
		m := clone(t, pos.Cert)
		zero := slices.Index(m.Terms, "0")
		k := slices.IndexFunc(m.Pairs[1:], func(pr [2]int) bool { return pr[0] != zero })
		if zero < 0 || k < 0 {
			t.Fatalf("no term 0 or no non-root pair to re-point: %v %v", m.Terms, m.Pairs)
		}
		m.Pairs[1+k][1] = zero
		if cert.Verify(m) == nil {
			t.Errorf("certificate pairing %s with 0 verified", m.Terms[m.Pairs[1+k][0]])
		}
	})
	t.Run("flipped verdict", func(t *testing.T) {
		m := clone(t, pos.Cert)
		m.Related = false
		if cert.Verify(m) == nil {
			t.Error("positive certificate relabelled negative verified")
		}
	})

	neg, err := ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: syntax.SendN(a, b), Q: syntax.SendN(a, c)})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Related || neg.Cert == nil {
		t.Fatalf("want a negative certificate, got related=%v", neg.Related)
	}
	verifyCert(t, neg.Cert, false, "baseline negative")

	t.Run("retargeted strategy", func(t *testing.T) {
		m := clone(t, neg.Cert)
		m.Nodes[0].P, m.Nodes[0].Q = m.Nodes[0].Q, "0"
		if cert.Verify(m) == nil {
			t.Error("strategy attacking the wrong root pair verified")
		}
	})
}

// TestCyclicStrategyRejected pins the well-foundedness check: a cyclic
// "refutation" of a greatest-fixpoint property proves nothing — here it would
// establish K ≁ K for the recursive constant K = τ.K.
func TestCyclicStrategyRejected(t *testing.T) {
	env := syntax.Env{}.Define("K", nil, syntax.TauP(syntax.Call{Id: "K"}))
	crt := &cert.Certificate{
		Version: cert.Version, Relation: cert.RelLabelled, Related: false,
		P: "K()", Q: "K()",
		Nodes: []cert.Strategy{{
			P: "K()", Q: "K()", Kind: "tau", Side: "left", To: "K()",
			Replies: []cert.Reply{{To: "K()", Next: 0}},
		}},
	}
	v := &cert.Verifier{Sys: semantics.NewSystem(env)}
	err := v.Verify(crt)
	if err == nil {
		t.Fatal("cyclic strategy verified")
	}
	if !strings.Contains(err.Error(), "cyclic") {
		t.Errorf("want a cyclicity rejection, got: %v", err)
	}
}

func clone(t *testing.T, c *cert.Certificate) *cert.Certificate {
	t.Helper()
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	out, err := cert.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReasonNamesActionAndTerms pins the Result.Reason contract: the failing
// action (or the unmatched barb, with the side that lacks it) and both
// canonical terms are named, byte for byte, on a fresh and a warm store alike.
// The barb rows cover all four static checks with the barb on either side,
// and barb sets of two names.
func TestReasonNamesActionAndTerms(t *testing.T) {
	labelled := func(ch *Checker, p, q syntax.Proc, weak bool) (Result, error) {
		return ch.Decide(context.Background(), Query{Rel: cert.RelLabelled, Weak: weak, P: p, Q: q})
	}
	barbed := func(ch *Checker, p, q syntax.Proc, weak bool) (Result, error) {
		return ch.Decide(context.Background(), Query{Rel: cert.RelBarbed, Weak: weak, P: p, Q: q})
	}
	step := func(ch *Checker, p, q syntax.Proc, weak bool) (Result, error) {
		return ch.Decide(context.Background(), Query{Rel: cert.RelStep, Weak: weak, P: p, Q: q})
	}
	cases := []struct {
		name string
		rel  func(ch *Checker, p, q syntax.Proc, weak bool) (Result, error)
		weak bool
		p, q string
		want string
	}{
		{"labelled tau", labelled, false, "tau.a!(b)", "tau.a!(c)",
			"strong labelled: tau move of left to a!(b) unmatched (comparing tau.a!(b) with tau.a!(c))"},
		{"strong barbed, barb on left", barbed, false, "a!(b)", "c!(b)",
			"strong barbed: strong barbs differ on a: {a} vs {c} (comparing a!(b) with c!(b))"},
		{"strong barbed, barb on right", barbed, false, "a! | b!", "a! | b! | c!",
			"strong barbed: strong barbs differ on c: {a, b} vs {a, b, c} (comparing a! | b! with a! | b! | c!)"},
		{"strong step, barb on left", step, false, "a! | b!", "a!",
			"strong step: step barbs differ on b: {a, b} vs {a} (comparing a! | b! with a!)"},
		{"strong step, barb on right", step, false, "c!", "b! + c!",
			"strong step: step barbs differ on b: {c} vs {b, c} (comparing c! with b! + c!)"},
		{"weak barbed, barb on left", barbed, true, "a! | b!", "tau.a!",
			"weak barbed: right side lacks weak barb on b (comparing a! | b! with tau.a!)"},
		{"weak barbed, barb on right", barbed, true, "tau.a!", "a! | c!",
			"weak barbed: left side lacks weak barb on c (comparing tau.a! with a! | c!)"},
		{"weak step, barb on left", step, true, "a! | b!", "a!",
			"weak step: right side lacks weak step barb on b (comparing a! | b! with a!)"},
		{"weak step, barb on right", step, true, "c!", "b! | c!",
			"weak step: left side lacks weak step barb on b (comparing c! with b! | c!)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := parser.Parse(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			q, err := parser.Parse(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			ch := NewChecker(nil)
			for _, pass := range []string{"fresh", "warm"} {
				r, err := tc.rel(ch, p, q, tc.weak)
				if err != nil {
					t.Fatal(err)
				}
				if r.Related {
					t.Fatalf("%s: %s and %s should be distinguished", pass, tc.p, tc.q)
				}
				if r.Reason != tc.want {
					t.Errorf("%s Reason = %q, want %q", pass, r.Reason, tc.want)
				}
			}
		})
	}
}

// TestWeakAnswerSpelling pins the order in which a weak output answer's
// terms are first interned. The store prints a term in the spelling it was
// first interned with, and certificates name terms that way. Answering
// a!.(d! + tau.nu x.b!(x)) + a!.nu y.b!(y) weakly closes the first target
// under τ, reaching nu x.b!(x), before the second target is interned, so
// the class of nu y.b!(y) is printed nu x.b!(x).
func TestWeakAnswerSpelling(t *testing.T) {
	p, err := parser.Parse("a!.c!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("a!.(d! + tau.nu x.b!(x)) + a!.nu y.b!(y)")
	if err != nil {
		t.Fatal(err)
	}
	r, err := newCertC().Decide(context.Background(), Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	if r.Related || r.Cert == nil {
		t.Fatalf("want a certified negative verdict, got Related=%v Cert=%v", r.Related, r.Cert != nil)
	}
	var got []string
	for _, rp := range r.Cert.Nodes[0].Replies {
		got = append(got, r.Cert.Nodes[rp.Next].Q)
	}
	if want := []string{"d! + tau.nu x.b!(x)", "nu x.b!(x)"}; !slices.Equal(got, want) {
		t.Errorf("the strategy answers a!.c! with %q, want %q", got, want)
	}
}
