package cert_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/syntax"
)

// budgetCorpus returns engine-emitted certificates of every shape the pair,
// one-step and congruence verifiers replay: the three pair relations strong
// and weak, positive and negative, weak one-step certificates whose τ
// challenges must be answered by a non-empty τ·τ* move, and congruence
// certificates with and without a separating substitution.
func budgetCorpus(t *testing.T) []*cert.Certificate {
	t.Helper()
	ch := newCertifying()
	var out []*cert.Certificate
	pairs := []struct{ p, q string }{
		{"tau.tau.a!", "tau.a!"},              // weakly related through a τ chain
		{"tau.(a! + tau.b!)", "tau.a! + b!"},  // τ-closures of two states
		{"a?(x).tau.x!", "a?(y).y!"},          // reaction then saturation
		{"nu x.(a!(x) | tau.x!)", "a!(c).c!"}, // bound output against free
	}
	for _, rel := range []string{cert.RelLabelled, cert.RelBarbed, cert.RelStep} {
		for _, weak := range []bool{false, true} {
			for _, pq := range pairs {
				crt, _ := pairCert(t, ch, rel, pq.p, pq.q, weak)
				out = append(out, crt)
			}
		}
	}
	for _, pq := range []struct{ p, q string }{
		{"tau.a!", "tau.b!"},                // τ answered by τ, then barbs differ
		{"tau.tau.a!", "tau.a!"},            // related: τ·τ* reaches a!
		{"tau.(a! + tau.b!)", "tau.tau.b!"}, // defender closure of several states
		{"a!.tau.b!", "a!.b!"},              // weak below the root, strict at it
		{"tau.a! + tau.b!", "tau.a! + c!"},  // a τ the defender cannot follow
	} {
		crt, _ := pairCert(t, ch, cert.RelOneStep, pq.p, pq.q, true)
		out = append(out, crt)
	}
	for _, pq := range []struct {
		p, q string
		weak bool
	}{
		{"a?(x).[x=b]c!", "a?(y).[y=b]c!", false}, // one one-step certificate per fusion
		{"tau.c!", "c!", true},                    // the τ-law gap: a separating σ
		{"a?(x).[x=b]c!", "a?(x).c!", false},      // a fusion enables the match
	} {
		crt, _ := pairCert(t, ch, cert.RelCongruence, pq.p, pq.q, pq.weak)
		out = append(out, crt)
	}
	return out
}

// TestVerifierFailsClosedAtEveryBudget sweeps the work and closure budgets
// upward from 1 for every corpus certificate: every budget below the one
// the certificate needs must be rejected with a budget error — wherever in
// the replay the budget runs out — and once a budget suffices, every
// larger one must accept.
func TestVerifierFailsClosedAtEveryBudget(t *testing.T) {
	sweep := func(crt *cert.Certificate, name string, mk func(n int) *cert.Verifier) {
		for n := 1; ; n++ {
			if n > 5000 {
				t.Fatalf("%s(%s, %s): still rejected at %s=%d", crt.Relation, crt.P, crt.Q, name, n)
			}
			err := mk(n).Verify(crt)
			if err == nil {
				for _, m := range []int{n + 1, 2 * n} {
					if err := mk(m).Verify(crt); err != nil {
						t.Errorf("%s(%s, %s): accepted at %s=%d, rejected at %d: %v",
							crt.Relation, crt.P, crt.Q, name, n, m, err)
					}
				}
				return
			}
			if !strings.Contains(err.Error(), "budget") {
				t.Fatalf("%s(%s, %s) at %s=%d: %v, want a budget error", crt.Relation, crt.P, crt.Q, name, n, err)
			}
		}
	}
	for _, crt := range budgetCorpus(t) {
		sweep(crt, "MaxWork", func(n int) *cert.Verifier { return &cert.Verifier{MaxWork: n} })
		sweep(crt, "MaxClosure", func(n int) *cert.Verifier { return &cert.Verifier{MaxClosure: n} })
	}
}

// TestVerifyAxiomsWorldsBounded: the verifier's work on worlds is bounded
// by the certificate, not by the Bell number of the pair's free names.
// Over a0! | … | a10! (678,570 worlds) a related proof that lists no world
// is refused at the first world, and a refutation naming the all-distinct
// world is checked without enumerating the others; enumerating every world
// first took 1.5–1.7 s and 655 MB on two CPUs.
func TestVerifyAxiomsWorldsBounded(t *testing.T) {
	parts := make([]string, 11)
	rep := map[string]string{}
	for i := range parts {
		parts[i] = fmt.Sprintf("a%d!", i)
		rep[fmt.Sprintf("a%d", i)] = fmt.Sprintf("a%d", i)
	}
	term := strings.Join(parts, " | ")
	for _, tc := range []struct {
		name string
		crt  *cert.Certificate
		want string
	}{
		{"related, no world", &cert.Certificate{Relation: cert.RelAxioms, Related: true, Proof: &cert.Proof{}},
			"proof covers 0 worlds"},
		{"refuted, one world", &cert.Certificate{Relation: cert.RelAxioms, Proof: &cert.Proof{
			Worlds: []cert.WorldStep{{Rep: rep}}}}, "goal index 0 out of range"},
	} {
		tc.crt.Version, tc.crt.P, tc.crt.Q = cert.Version, term, term
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := cert.Verify(tc.crt)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
		if elapsed > 100*time.Millisecond {
			t.Errorf("%s: took %s, want under 100ms", tc.name, elapsed)
		}
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 16 {
			t.Errorf("%s: allocated %.1f MB, want under 16 MB", tc.name, mb)
		}
	}
}

// TestCyclicStrategyRejected hand-crafts a "refutation" of P ≁b P for the
// τ-loop P: the root's only τ move returns to the root pair, so its reply
// points back at node 0. A cyclic strategy proves nothing about a greatest
// fixpoint and must be rejected as such.
func TestCyclicStrategyRejected(t *testing.T) {
	p := syntax.String(mustParse(t, "(rec G(a). tau.G(a))(a)"))
	crt := &cert.Certificate{
		Version: cert.Version, Relation: cert.RelBarbed, Related: false, P: p, Q: p,
		Nodes: []cert.Strategy{{P: p, Q: p, Side: "left", Kind: "tau", To: p,
			Replies: []cert.Reply{{To: p, Next: 0}}}},
	}
	err := cert.Verify(crt)
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("cyclic strategy: got %v, want a cyclic-strategy rejection", err)
	}
}
