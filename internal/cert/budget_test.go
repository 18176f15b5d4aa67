package cert_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/stress"
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
	crt, _ := pairCert(t, ch, cert.RelOneStep, "a!.b!", "a!.b! + a!.b!", false) // strong, related
	out = append(out, crt)
	for _, pq := range []struct {
		p, q string
		weak bool
	}{
		{"a?(x).[x=b]c!", "a?(y).[y=b]c!", false}, // one one-step certificate per fusion
		{"tau.c!", "c!", true},                    // the τ-law gap: a separating σ
		{"a?(x).[x=b]c!", "a?(x).c!", false},      // a fusion enables the match
		{"a!.tau.b!", "a!.b!", true},              // related, with weak discard clauses
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
// larger one must accept. Two hand-made weak labelled certificates over
// τ.a0! + … + τ.a(n-1)! probe the relation once per derived answer: one
// lists only the root pair, so every probe of the n+1 answers misses, and
// one lists the a_i! pairs too, which the probes find only after the
// answers sorted before them.
func TestVerifierFailsClosedAtEveryBudget(t *testing.T) {
	sweep := func(crt *cert.Certificate, name string, mk func(n int) *cert.Verifier) int {
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
				return n
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

	miss := wideTau(256, false)
	refusedWithin(t, "every probe misses", miss, "unanswered tau", 16)
	if err := (&cert.Verifier{MaxWork: 64}).Verify(miss); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("every probe misses, MaxWork=64: %v, want a budget error", err)
	}
	const n = 16
	late := wideTau(n, true)
	if work := sweep(late, "MaxWork", func(w int) *cert.Verifier { return &cert.Verifier{MaxWork: w} }); work <= n*n {
		t.Errorf("late hits verified at MaxWork=%d, want over %d: a probe is not charged", work, n*n)
	}
}

// wideTau returns a weak labelled certificate of S ≈ S for S = τ.a0! + …
// + τ.a(n-1)!, whose τ challenges each have the n+1 answers of S's τ
// closure. Its relation lists (S, S) and, when closed, (a_i!, a_i!) and
// (0, 0).
func wideTau(n int, closed bool) *cert.Certificate {
	arms := make([]string, n)
	terms := []string{""}
	pairs := [][2]int{{0, 0}}
	for i := range arms {
		arms[i] = fmt.Sprintf("tau.a%d!", i)
		terms = append(terms, fmt.Sprintf("a%d!", i))
		if closed {
			pairs = append(pairs, [2]int{i + 1, i + 1})
		}
	}
	terms[0] = strings.Join(arms, " + ")
	if closed {
		terms = append(terms, "0")
		pairs = append(pairs, [2]int{n + 1, n + 1})
	}
	return &cert.Certificate{Version: cert.Version, Relation: cert.RelLabelled, Weak: true, Related: true,
		P: terms[0], Q: terms[0], Terms: terms, Pairs: pairs}
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
		refusedWithin(t, tc.name, tc.crt, tc.want, 16)
	}
}

// refusedWithin verifies crt, which must be refused with an error holding
// want, in under 100 ms and maxMB allocated.
func refusedWithin(t *testing.T, name string, crt *cert.Certificate, want string, maxMB float64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := cert.Verify(crt)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("%s: err = %v, want %q", name, err, want)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("%s: took %s, want under 100ms", name, elapsed)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > maxMB {
		t.Errorf("%s: allocated %.1f MB, want under %.0f MB", name, mb, maxMB)
	}
}

// TestVerifyEnumerationsBounded: the verifier walks payload tuples and
// fusions one at a time, charging each to MaxWork, so a certificate whose
// first challenge or fusion fails is refused there. A labelled certificate
// of a 6-ary input with 7 free names (13^6 payloads) whose relation lists
// only the root pair, and a related ~c certificate over 7 free names (7^7
// fusions) with no sub-certificate, each took 0.6–2.1 s and 315–1,028 MB
// on two CPUs when the whole list was built first.
func TestVerifyEnumerationsBounded(t *testing.T) {
	in := "a?(x0,x1,x2,x3,x4,x5).x0!(b0,b1,b2,b3,b4,b5)"
	outs := "a0! | a1! | a2! | a3! | a4! | a5! | a6!"
	for _, tc := range []struct {
		name string
		crt  *cert.Certificate
		want string
	}{
		{"labelled, root pair only", &cert.Certificate{Relation: cert.RelLabelled, P: in, Q: in,
			Terms: []string{in}, Pairs: [][2]int{{0, 0}}}, "unanswered react"},
		{"congruence, no sub-certificate", &cert.Certificate{Relation: cert.RelCongruence, P: outs, Q: outs},
			"no one-step sub-certificate"},
	} {
		tc.crt.Version, tc.crt.Related = cert.Version, true
		refusedWithin(t, tc.name, tc.crt, tc.want, 64)
	}
}

// TestVerifyAllocs pins the objects Verify allocates on two engine-made
// certificates: the step certificate of the golden mesh and the labelled
// one of rings-3x2 against its rotation. The mesh bound lies between the
// count measured when it was set (27,006) and that of a verifier which
// built a key string per checked move and membership test (36,232). The
// rings bound lies between a verifier that memoises reception derivatives
// (270,023) and one that re-derives them for every pair that walks them
// (348,255 with the same semantics layer, 384,082 before it derived into a
// pooled buffer). The race detector drops pooled key writers at random, so
// the counts are checked only without it.
func TestVerifyAllocs(t *testing.T) {
	ch := newCertifying()
	mesh := stress.GoldenMesh()
	rings := stress.Rings(3, 2)
	for _, tc := range []struct {
		name, rel string
		p, q      syntax.Proc
		max       float64
	}{
		{"mesh-12 step", cert.RelStep, mesh.P, mesh.Q, 32_000},
		{"rings-3x2 labelled", cert.RelLabelled, rings, stress.Rotate(rings), 310_000},
	} {
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: tc.rel, P: tc.p, Q: tc.q})
		if err != nil || !r.Related || r.Cert == nil {
			t.Fatalf("%s: related=%v err=%v", tc.name, r.Related, err)
		}
		n := testing.AllocsPerRun(1, func() {
			if err := cert.Verify(r.Cert); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		t.Logf("%s: Verify allocated %.0f objects", tc.name, n)
		if n > tc.max && !raceEnabled {
			t.Errorf("%s: Verify allocated %.0f objects, want at most %.0f", tc.name, n, tc.max)
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
