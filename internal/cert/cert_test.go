// Black-box tests for the certificate verifier. The test package may import
// the engines — the independence constraint (zero shared code) binds the
// verifier itself, and TestVerifierIndependence in the equiv package pins it
// at the import-graph level. Here the engines only play the role of
// certificate *producers*; everything they emit is replayed through Verify,
// and every mutation of a valid certificate must be rejected.
package cert_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bpi/internal/axioms"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/parser"
	"bpi/internal/syntax"
)

func mustParse(t testing.TB, src string) syntax.Proc {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

func newCertifying() *equiv.Checker {
	ch := equiv.NewChecker(nil)
	ch.Certify = true
	return ch
}

// cloneCert returns a deep copy of c, through its JSON form.
func cloneCert(t testing.TB, c *cert.Certificate) *cert.Certificate {
	t.Helper()
	data, err := c.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := cert.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// pairCert produces the certificate of one relation check.
func pairCert(t testing.TB, ch *equiv.Checker, rel, p, q string, weak bool) (*cert.Certificate, bool) {
	t.Helper()
	r, err := ch.Decide(context.Background(), equiv.Query{Rel: rel, Weak: weak, P: mustParse(t, p), Q: mustParse(t, q)})
	if err != nil {
		t.Fatalf("%s(%s, %s): %v", rel, p, q, err)
	}
	if r.Cert == nil {
		t.Fatalf("%s(%s, %s): no certificate from a Certify checker", rel, p, q)
	}
	return r.Cert, r.Related
}

// TestPairRelationCertificates replays engine-produced certificates for the
// three pair relations, strong and weak, positive and negative, over pairs
// that exercise τ-saturation, bound outputs, reaction challenges and the
// Remark 4 stuck listener.
func TestPairRelationCertificates(t *testing.T) {
	pairs := []struct{ p, q string }{
		{"tau.a!", "a!"},                        // weakly related, strongly not
		{"a! | b!", "a!.b! + b!.a!"},            // expansion-law instance
		{"nu x.a!(x)", "nu y.a!(y)"},            // bound output, α-varied binder
		{"b? | b?(x)", "0"},                     // stuck mixed-arity listener
		{"tau.a!(b)", "tau.a!(c)"},              // τ then differing payloads
		{"a?(x).x!", "a?(y).y!"},                // input instantiation
		{"a? + b?(x)", "b?(x) + a?"},            // two input shapes per side
		{"a?(x,y).x!", "a?(u,v).u!"},            // arity-2 payload tuples
		{"nu b.(b! | b?(x).c!)", "tau.c! + c!"}, // restricted reaction
	}
	for _, rel := range []string{cert.RelLabelled, cert.RelBarbed, cert.RelStep} {
		for _, weak := range []bool{false, true} {
			ch := newCertifying()
			for _, pq := range pairs {
				crt, related := pairCert(t, ch, rel, pq.p, pq.q, weak)
				if crt.Relation != rel || crt.Weak != weak || crt.Related != related {
					t.Errorf("%s weak=%v (%s, %s): header mismatch %+v", rel, weak, pq.p, pq.q, crt)
				}
				if err := cert.Verify(crt); err != nil {
					t.Errorf("%s weak=%v (%s, %s) related=%v: rejected: %v",
						rel, weak, pq.p, pq.q, related, err)
				}
			}
		}
	}
}

// TestOneStepAndCongruenceCertificates covers the composite certificates:
// one-step's relation also answers the strict root moves (and, weakly, the
// discard clause); congruence embeds per-fusion one-step certificates or a
// distinguishing substitution.
func TestOneStepAndCongruenceCertificates(t *testing.T) {
	pairs := []struct{ p, q string }{
		{"a!.b!", "a!.b!"},
		{"tau.a!", "a!"}, // one-step strictness separates strongly
		{"a?(x).x!", "a?(y).y!"},
		{"a! + a!", "a!"},
		{"b? | b?(x)", "0"},
		{"tau.a!", "tau.b!"},                // weakly, τ answered by τ·τ*, then barbs differ
		{"tau.(a! + tau.b!)", "tau.tau.b!"}, // τ·τ* answers from a closure of several states
		{"a!.tau.b!", "a!.b!"},              // weak below the root, strict at it
	}
	ch := newCertifying()
	for _, pq := range pairs {
		for _, weak := range []bool{false, true} {
			crt, ok := pairCert(t, ch, cert.RelOneStep, pq.p, pq.q, weak)
			if crt.Relation != cert.RelOneStep || crt.Related != ok {
				t.Fatalf("onestep(%s, %s) weak=%v: bad certificate %+v", pq.p, pq.q, weak, crt)
			}
			if err := cert.Verify(crt); err != nil {
				t.Errorf("onestep(%s, %s) weak=%v related=%v: rejected: %v", pq.p, pq.q, weak, ok, err)
			}
		}
		crt, ok := pairCert(t, ch, cert.RelCongruence, pq.p, pq.q, false)
		if crt.Relation != cert.RelCongruence || crt.Related != ok {
			t.Fatalf("congruence(%s, %s): bad certificate %+v", pq.p, pq.q, crt)
		}
		if err := cert.Verify(crt); err != nil {
			t.Errorf("congruence(%s, %s) related=%v: rejected: %v", pq.p, pq.q, ok, err)
		}
	}
}

// TestNegativeStrategyShapes drives one distinguishing pair per attacker-move
// kind, so every strategy-node replay path of the verifier (barb and discard
// observations, τ, output, reaction and strict-input challenges, strong and
// weak) is exercised by a certificate the engine actually emitted.
func TestNegativeStrategyShapes(t *testing.T) {
	ch := newCertifying()
	pairCases := []struct {
		rel  string
		p, q string
		weak bool
	}{
		{cert.RelBarbed, "a!", "b!", false},               // barb mismatch leaf
		{cert.RelBarbed, "a!", "b!", true},                // weak barb mismatch
		{cert.RelLabelled, "a!(b)", "a!(c)", false},       // output label differs
		{cert.RelLabelled, "a?(x).x!", "a?(y).c!", false}, // react: payload separates
		{cert.RelLabelled, "a?(x).x!", "a?(y).c!", true},  // weak react
		{cert.RelStep, "tau.a!", "a!", false},             // unmatched autonomous step
		{cert.RelStep, "a!.b!", "a!.c!", true},            // weak step below a move
	}
	for _, cse := range pairCases {
		crt, related := pairCert(t, ch, cse.rel, cse.p, cse.q, cse.weak)
		if related {
			t.Fatalf("%s weak=%v (%s, %s): expected a distinguishing pair", cse.rel, cse.weak, cse.p, cse.q)
		}
		if len(crt.Nodes) == 0 {
			t.Fatalf("%s weak=%v (%s, %s): negative certificate without a strategy", cse.rel, cse.weak, cse.p, cse.q)
		}
		if err := cert.Verify(crt); err != nil {
			t.Errorf("%s weak=%v (%s, %s): rejected: %v", cse.rel, cse.weak, cse.p, cse.q, err)
		}
	}
	// One-step negatives: the strict root challenge ("in") and the weak
	// discard clause have no labelled-level counterpart.
	oneStep := []struct {
		p, q string
		weak bool
	}{
		{"a?(x).x!", "b?(x).x!", false}, // strict reception unanswered
		{"a?(x).x!", "a?(y).c!", false}, // strict reception, differing derivative
		{"tau.a!", "a!", false},         // strict τ unanswered
		{"b?", "0", true},               // weak discard clause separates
	}
	for _, cse := range oneStep {
		crt, ok := pairCert(t, ch, cert.RelOneStep, cse.p, cse.q, cse.weak)
		if ok {
			t.Fatalf("onestep(%s, %s) weak=%v: expected a distinguishing pair", cse.p, cse.q, cse.weak)
		}
		if err := cert.Verify(crt); err != nil {
			t.Errorf("onestep(%s, %s) weak=%v: rejected: %v", cse.p, cse.q, cse.weak, err)
		}
	}
	// Congruence negative: the τ-law pair is ≈ but not ≈c, so the
	// certificate records the separating substitution and its strategy.
	crt, ok := pairCert(t, ch, cert.RelCongruence, "tau.c!", "c!", true)
	if ok {
		t.Fatal("tau.c! ≈c c! must fail (the τ-law gap)")
	}
	if err := cert.Verify(crt); err != nil {
		t.Errorf("congruence negative rejected: %v", err)
	}
}

// TestAxiomsCertificates replays prover proof objects, proved and refuted,
// including pairs that force (H)-saturation and (SP) input instantiation.
func TestAxiomsCertificates(t *testing.T) {
	pairs := []struct{ p, q string }{
		{"a! + a!", "a!"},            // (S2) idempotence — proved
		{"a!.b!", "b!.a!"},           // refuted (out labels differ)
		{"a?(x).x!", "a?(y).y!"},     // α-varied inputs — proved
		{"tau.a!(b)", "tau.a!(c)"},   // refuted below a τ (genuine Refutes)
		{"a! | b?", "a!.b? + b?.a!"}, // expansion with a listener (saturation)
		{"[a=b](b!, c!)", "c!"},      // match decided per world (refuted where a=b)
		{"a!(b)", "a!(c)"},           // refuted: output labels differ at the root
		{"a?(x).x!", "a?(x).c!"},     // refuted inside an input instantiation
		{"a?", "0"},                  // refuted: input shapes differ
		{"a? + b?(x)", "b?(x) + a?"}, // two input shapes per side, commuted
		{"nu x.a!(x)", "nu y.a!(y)"}, // bound outputs, canonical binders agree
	}
	for _, pq := range pairs {
		pr := axioms.NewProver(nil)
		pr.Certify = true
		proved, err := pr.Decide(mustParse(t, pq.p), mustParse(t, pq.q))
		if err != nil {
			t.Fatalf("Decide(%s, %s): %v", pq.p, pq.q, err)
		}
		crt := pr.Certificate()
		if crt == nil || crt.Relation != cert.RelAxioms || crt.Related != proved {
			t.Fatalf("Decide(%s, %s): bad certificate %+v", pq.p, pq.q, crt)
		}
		if err := cert.Verify(crt); err != nil {
			t.Errorf("Decide(%s, %s) proved=%v: rejected: %v", pq.p, pq.q, proved, err)
		}
	}
}

// TestMarshalRoundTrip: serialisation is loss-free — the unmarshalled
// certificate is structurally identical and still verifies.
func TestMarshalRoundTrip(t *testing.T) {
	ch := newCertifying()
	for _, pq := range [][2]string{{"nu x.a!(x)", "nu y.a!(y)"}, {"tau.a!(b)", "tau.a!(c)"}} {
		crt, _ := pairCert(t, ch, cert.RelLabelled, pq[0], pq[1], false)
		data, err := crt.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := cert.Unmarshal(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(crt, back) {
			t.Errorf("round trip changed the certificate:\n before %+v\n after  %+v", crt, back)
		}
		if err := cert.Verify(back); err != nil {
			t.Errorf("round-tripped certificate rejected: %v", err)
		}
	}
	if _, err := cert.Unmarshal([]byte("{")); err == nil {
		t.Error("truncated JSON accepted")
	}
}

// TestTamperedCertificatesRejected: every mutation of a valid certificate —
// header lies, dropped evidence, dangling indices, unparseable terms,
// strategy cycles — must be rejected, and the original must keep verifying
// afterwards (the verifier does not mutate its input).
func TestTamperedCertificatesRejected(t *testing.T) {
	ch := newCertifying()
	pos, related := pairCert(t, ch, cert.RelLabelled, "a! | b!", "a!.b! + b!.a!", false)
	if !related {
		t.Fatal("expansion-law pair must be strongly labelled bisimilar")
	}
	neg, related := pairCert(t, ch, cert.RelLabelled, "tau.a!(b)", "tau.a!(c)", false)
	if related {
		t.Fatal("tau.a!(b) ~ tau.a!(c) must fail")
	}
	cases := []struct {
		name   string
		tamper func(c *cert.Certificate) *cert.Certificate
	}{
		{"nil certificate", func(*cert.Certificate) *cert.Certificate { return nil }},
		{"wrong version", func(c *cert.Certificate) *cert.Certificate { c.Version = 99; return c }},
		{"unknown relation", func(c *cert.Certificate) *cert.Certificate { c.Relation = "magic"; return c }},
		{"flipped verdict", func(c *cert.Certificate) *cert.Certificate { c.Related = !c.Related; return c }},
		{"unparseable term", func(c *cert.Certificate) *cert.Certificate {
			if len(c.Terms) > 0 {
				c.Terms[0] = "(("
			} else {
				c.P = "(("
			}
			return c
		}},
	}
	for _, base := range []struct {
		name string
		crt  *cert.Certificate
	}{{"positive", pos}, {"negative", neg}} {
		for _, cse := range cases {
			mutated := cse.tamper(cloneCert(t, base.crt))
			if err := cert.Verify(mutated); err == nil {
				t.Errorf("%s/%s: tampered certificate accepted", base.name, cse.name)
			}
		}
	}
	// Positive-specific: stolen pairs, a pair re-pointed at a term its
	// partner is not bisimilar to, and dangling indices.
	c := cloneCert(t, pos)
	c = withoutPair(t, c, "b!", "b!") // answers the root's a! challenge
	if err := cert.Verify(c); err == nil {
		t.Error("positive certificate without the pair a challenge needs accepted")
	}
	c = cloneCert(t, pos)
	c.Pairs = c.Pairs[:1]
	if err := cert.Verify(c); err == nil {
		t.Error("positive certificate with dropped pairs accepted (relation not closed)")
	}
	c = cloneCert(t, pos)
	repoint(t, c, "b!", "b!", "a!")
	if err := cert.Verify(c); err == nil {
		t.Error("positive certificate pairing b! with a! accepted")
	}
	c = cloneCert(t, pos)
	c.Pairs[0] = [2]int{0, len(c.Terms) + 3}
	if err := cert.Verify(c); err == nil {
		t.Error("dangling term index accepted")
	}
	// Negative-specific: a strategy whose refutation is cyclic, and a
	// challenge whose recorded answer set lies about being empty.
	c = cloneCert(t, neg)
	for i := range c.Nodes {
		for j := range c.Nodes[i].Replies {
			c.Nodes[i].Replies[j].Next = 0 // every refutation loops to the root
		}
	}
	if err := cert.Verify(c); err == nil {
		t.Error("cyclic strategy accepted")
	}
	c = cloneCert(t, neg)
	c.Nodes[0].Replies = nil
	if len(c.Nodes[0].Kind) > 0 && c.Nodes[0].Kind != "barb" {
		if err := cert.Verify(c); err == nil {
			t.Error("strategy claiming an empty answer set accepted")
		}
	}
	c = cloneCert(t, neg)
	c.Nodes[0].To = "0"
	if err := cert.Verify(c); err == nil {
		t.Error("strategy whose attack move is not derivable accepted")
	}
	c = cloneCert(t, neg)
	if len(c.Nodes[0].Replies) > 0 {
		c.Nodes[0].Replies[0].Next = len(c.Nodes) + 9
		if err := cert.Verify(c); err == nil {
			t.Error("strategy with an out-of-range reply index accepted")
		}
		c = cloneCert(t, neg)
		c.Nodes[0].Replies[0].To = "d!.d!.d!"
		if err := cert.Verify(c); err == nil {
			t.Error("strategy refuting a fabricated defender answer accepted")
		}
	}
	// The originals still verify after all that cloning and mutation.
	if err := cert.Verify(pos); err != nil {
		t.Errorf("original positive certificate no longer verifies: %v", err)
	}
	if err := cert.Verify(neg); err != nil {
		t.Errorf("original negative certificate no longer verifies: %v", err)
	}
}

// TestTamperedCompositeCertificatesRejected tampers the composite layers —
// the one-step root's strict moves and weak discard clause, the embedded
// congruence sub-certificates and the axioms proof DAG — whose evidence
// lives outside the plain pair relation.
func TestTamperedCompositeCertificatesRejected(t *testing.T) {
	ch := newCertifying()
	// One-step positive: the relation must answer the root's strict moves.
	os, ok := pairCert(t, ch, cert.RelOneStep, "a!.b!", "a!.b! + a!.b!", false)
	if !ok {
		t.Fatal("onestep baseline: not related")
	}
	if err := cert.Verify(os); err != nil {
		t.Fatalf("onestep baseline rejected: %v", err)
	}
	c := withoutPair(t, cloneCert(t, os), "b!", "b!") // answers the root's a!
	if err := cert.Verify(c); err == nil {
		t.Error("one-step certificate without the pair a strict root move needs accepted")
	}
	c = cloneCert(t, os)
	repoint(t, c, "b!", "b!", "0")
	if err := cert.Verify(c); err == nil {
		t.Error("one-step certificate pairing b! with 0 accepted")
	}
	// Weak one-step: a discard of a or b by either side is answered by the
	// root pair itself, which must therefore be listed.
	wos, ok := pairCert(t, ch, cert.RelOneStep, "a!.tau.b!", "a!.b!", true)
	if !ok {
		t.Fatal("weak onestep baseline: not related")
	}
	if err := cert.Verify(wos); err != nil {
		t.Fatalf("weak onestep baseline rejected: %v", err)
	}
	c = withoutPair(t, cloneCert(t, wos), "a!.tau.b!", "a!.b!")
	if err := cert.Verify(c); err == nil || !strings.Contains(err.Error(), "discard") {
		t.Errorf("weak one-step certificate without its discard witness pair: got %v, want a discard error", err)
	}

	// Congruence positive: one embedded one-step certificate per fusion.
	cg, ok := pairCert(t, ch, cert.RelCongruence, "a! + a!", "a!", false)
	if !ok {
		t.Fatal("congruence baseline: not related")
	}
	if err := cert.Verify(cg); err != nil {
		t.Fatalf("congruence baseline rejected: %v", err)
	}
	c = cloneCert(t, cg)
	c.Subs = nil
	if err := cert.Verify(c); err == nil {
		t.Error("congruence certificate without its per-fusion evidence accepted")
	}
	c = cloneCert(t, cg)
	if len(c.Subs) > 0 {
		c.Subs[0].Related = false
		if err := cert.Verify(c); err == nil {
			t.Error("congruence certificate with a disavowed fusion accepted")
		}
	}
	// [a=b]c! simplifies to 0, but the fusion a↦b fires the match: a proof
	// of 0 ~c 0 relabelled as [a=b]c! ~c 0 must lack that fusion's evidence.
	zero, ok := pairCert(t, ch, cert.RelCongruence, "0", "0", false)
	if !ok {
		t.Fatal("0 ~c 0 baseline: not related")
	}
	c = cloneCert(t, zero)
	c.P = "[a=b]c!"
	if err := cert.Verify(c); err == nil {
		t.Error("0 ~c 0 certificate accepted for [a=b]c! ~c 0")
	}

	// Axioms proof: truncated world enumeration, flipped goal polarity and
	// dangling subgoal indices must all fail the replay.
	pr := axioms.NewProver(nil)
	pr.Certify = true
	proved, err := pr.Decide(mustParse(t, "a! + a!"), mustParse(t, "a!"))
	if err != nil || !proved {
		t.Fatalf("axioms baseline: proved=%v err=%v", proved, err)
	}
	ax := pr.Certificate()
	if err := cert.Verify(ax); err != nil {
		t.Fatalf("axioms baseline rejected: %v", err)
	}
	c = cloneCert(t, ax)
	c.Proof = nil
	if err := cert.Verify(c); err == nil {
		t.Error("axioms certificate without a proof accepted")
	}
	c = cloneCert(t, ax)
	c.Proof.Worlds = c.Proof.Worlds[:0]
	if err := cert.Verify(c); err == nil {
		t.Error("axioms certificate with a truncated world enumeration accepted")
	}
	c = cloneCert(t, ax)
	c.Proof.Goals[0].Proved = !c.Proof.Goals[0].Proved
	if err := cert.Verify(c); err == nil {
		t.Error("axioms certificate with a flipped goal polarity accepted")
	}
	c = cloneCert(t, ax)
	c.Proof.Worlds[0].Goal = len(c.Proof.Goals) + 7
	if err := cert.Verify(c); err == nil {
		t.Error("axioms certificate with a dangling world goal accepted")
	}
	c = cloneCert(t, ax)
	top := c.Proof.Worlds[0].Goal
	c.Proof.Goals[top].Taus = nil
	c.Proof.Goals[top].Outs = nil
	c.Proof.Goals[top].Ins = nil
	if err := cert.Verify(c); err == nil {
		t.Error("axioms certificate with emptied matching steps accepted")
	}
	c = cloneCert(t, ax)
	c.Proof.Goals[c.Proof.Worlds[0].Goal].FailKind = "tau"
	if err := cert.Verify(c); err == nil {
		t.Error("proved goal carrying a failure kind accepted")
	}
	c = cloneCert(t, ax)
	for k := range c.Proof.Worlds[0].Rep {
		c.Proof.Worlds[0].Rep[k] = "zzz"
	}
	if err := cert.Verify(c); err == nil {
		t.Error("axioms certificate with a corrupted world representative accepted")
	}

	// Refutation lies: a proof that names the wrong failing clause must be
	// caught by the re-derivation, whichever clause it points at.
	refuted := func(p, q string) *cert.Certificate {
		t.Helper()
		pr := axioms.NewProver(nil)
		pr.Certify = true
		proved, err := pr.Decide(mustParse(t, p), mustParse(t, q))
		if err != nil || proved {
			t.Fatalf("refuted baseline (%s, %s): proved=%v err=%v", p, q, proved, err)
		}
		crt := pr.Certificate()
		if err := cert.Verify(crt); err != nil {
			t.Fatalf("refuted baseline (%s, %s) rejected: %v", p, q, err)
		}
		return crt
	}
	shapes := refuted("a?", "0") // genuinely fails the shape clause
	c = cloneCert(t, shapes)
	c.Proof.Goals[c.Proof.Worlds[0].Goal].FailKind = ""
	if err := cert.Verify(c); err == nil {
		t.Error("shape refutation with its failure kind erased accepted")
	}
	c = cloneCert(t, shapes)
	c.Proof.Worlds[0].Rep = map[string]string{"a": "zzz"}
	if err := cert.Verify(c); err == nil {
		t.Error("refutation in a world outside the enumeration accepted")
	}
	deep := refuted("tau.a!(b)", "tau.a!(c)") // fails below a τ, not on shapes
	c = cloneCert(t, deep)
	g := &c.Proof.Goals[c.Proof.Worlds[0].Goal]
	g.FailKind = "shapes"
	if err := cert.Verify(c); err == nil {
		t.Error("refutation claiming a shape mismatch that is not there accepted")
	}
	c = cloneCert(t, deep)
	g = &c.Proof.Goals[c.Proof.Worlds[0].Goal]
	g.FailKind = "discards"
	g.FailName = "a"
	if err := cert.Verify(c); err == nil {
		t.Error("refutation claiming a discard mismatch that is not there accepted")
	}
	c = cloneCert(t, deep)
	g = &c.Proof.Goals[c.Proof.Worlds[0].Goal]
	g.FailKind = "discards"
	g.FailName = "zz"
	if err := cert.Verify(c); err == nil {
		t.Error("refutation over a name that is not free accepted")
	}
}

// pairIndex returns the index of the listed pair (l, r) of c, printed as
// the certificate prints its terms.
func pairIndex(t *testing.T, c *cert.Certificate, l, r string) int {
	t.Helper()
	for k, pr := range c.Pairs {
		if c.Terms[pr[0]] == l && c.Terms[pr[1]] == r {
			return k
		}
	}
	t.Fatalf("%s(%s, %s) lists no pair (%s, %s): %v", c.Relation, c.P, c.Q, l, r, c.Pairs)
	return -1
}

// withoutPair deletes the listed pair (l, r) from c and returns c.
func withoutPair(t *testing.T, c *cert.Certificate, l, r string) *cert.Certificate {
	t.Helper()
	k := pairIndex(t, c, l, r)
	c.Pairs = slices.Delete(c.Pairs, k, k+1)
	return c
}

// repoint re-points the listed pair (l, r) of c at the listed term to in
// place of r.
func repoint(t *testing.T, c *cert.Certificate, l, r, to string) {
	t.Helper()
	k := pairIndex(t, c, l, r)
	j := slices.Index(c.Terms, to)
	if j < 0 {
		t.Fatalf("%s(%s, %s) lists no term %s", c.Relation, c.P, c.Q, to)
	}
	c.Pairs[k][1] = j
}

// pairsOf lists one deletion per pair of c and, in turn, of its
// sub-certificates, each named by its table and terms; at maps the
// outermost certificate to c.
func pairsOf(c *cert.Certificate, table string, at func(*cert.Certificate) *cert.Certificate) map[string]func(*cert.Certificate) {
	out := map[string]func(*cert.Certificate){}
	for k, pr := range c.Pairs {
		out[fmt.Sprintf("%s pairs[%d] (%s, %s)", table, k, c.Terms[pr[0]], c.Terms[pr[1]])] = func(r *cert.Certificate) {
			s := at(r)
			s.Pairs = slices.Delete(s.Pairs, k, k+1)
		}
	}
	for i, sc := range c.Subs {
		maps.Copy(out, pairsOf(sc, fmt.Sprintf("%s subs[%d]", table, i),
			func(r *cert.Certificate) *cert.Certificate { return at(r).Subs[i] }))
	}
	return out
}

// TestVerifyNeedsEveryPair deletes each listed pair of a positive
// certificate in turn, sub-certificates included, and wants Verify to
// refuse every deletion. In a?(x).x!.b! against a?(y).y!.b!, strong, every
// challenge has exactly one answer, so every pair the engines list answers
// some challenge or is the root: a verifier that skipped a challenge, or
// found an answer outside the relation, would accept a deletion.
func TestVerifyNeedsEveryPair(t *testing.T) {
	ch := newCertifying()
	for _, rel := range cert.Relations {
		crt, ok := pairCert(t, ch, rel, "a?(x).x!.b!", "a?(y).y!.b!", false)
		if !ok {
			t.Fatalf("%s: not related", rel)
		}
		dels := pairsOf(crt, rel, func(r *cert.Certificate) *cert.Certificate { return r })
		if len(dels) == 0 {
			t.Errorf("%s: no pair to delete", rel)
		}
		for name, del := range dels {
			m := cloneCert(t, crt)
			del(m)
			if err := cert.Verify(m); err == nil {
				t.Errorf("deleting %s accepted", name)
			}
		}
		t.Logf("%s: %d deletions refused", rel, len(dels))
	}
}

// TestVerifyChecksEveryReply deletes each reply of every negative
// certificate of budgetCorpus's pairs under the five relations, strong
// and weak, one at a time, and wants Verify to refuse every deletion
// unless the same node holds an identical reply.
func TestVerifyChecksEveryReply(t *testing.T) {
	ch := newCertifying()
	var pairs [][2]string
	for _, bc := range budgetCorpus(t) {
		if !slices.Contains(pairs, [2]string{bc.P, bc.Q}) {
			pairs = append(pairs, [2]string{bc.P, bc.Q})
		}
	}
	deleted, dups := 0, 0
	for _, pq := range pairs {
		for _, rel := range cert.Relations {
			for _, weak := range []bool{false, true} {
				crt, _ := pairCert(t, ch, rel, pq[0], pq[1], weak)
				for i, n := range crt.Nodes {
					for j, rp := range n.Replies {
						if slices.Contains(n.Replies[:j], rp) || slices.Contains(n.Replies[j+1:], rp) {
							dups++
							continue
						}
						m := cloneCert(t, crt)
						m.Nodes[i].Replies = slices.Delete(m.Nodes[i].Replies, j, j+1)
						if err := cert.Verify(m); err == nil {
							t.Errorf("%s weak=%v (%s, %s): deleting nodes[%d] reply %s -> %d accepted",
								rel, weak, pq[0], pq[1], i, rp.To, rp.Next)
						}
						deleted++
					}
				}
			}
		}
	}
	if deleted == 0 {
		t.Error("no reply deleted")
	}
	t.Logf("%d deletions refused; %d replies left with an identical one", deleted, dups)
}

// v1OneStep is a version-1 certificate, written before positive
// certificates dropped their move tables: the weak one-step certificate of
// a!.tau.b! against a!.b!, with moves, topMoves and discards.
var v1OneStep = filepath.Join("..", "..", "testdata", "cert-v1-onestep-weak.json")

// TestVersionOneVerifies: a version-1 certificate's move tables decode into
// nothing, and its relation is checked as a version-2 one is. It verifies,
// still verifies with a recorded move rewritten, and is refused without
// the pair (τ.b!, b!) that answers the root's strict a! challenge; the
// same certificate marked version 3 is refused.
func TestVersionOneVerifies(t *testing.T) {
	data, err := os.ReadFile(v1OneStep)
	if err != nil {
		t.Fatal(err)
	}
	decode := func(edit func(m map[string]any)) *cert.Certificate {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		edit(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cert.Unmarshal(b)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := decode(func(map[string]any) {})
	if c.Version != 1 || c.Relation != cert.RelOneStep || !c.Weak {
		t.Fatalf("fixture header: %+v", c)
	}
	if err := cert.Verify(c); err != nil {
		t.Errorf("version 1: %v", err)
	}
	rewritten := decode(func(m map[string]any) {
		mv := m["moves"].([]any)[0].([]any)[0].(map[string]any)
		mv["kind"], mv["pair"] = "in", []int{4, 0}
	})
	if err := cert.Verify(rewritten); err != nil {
		t.Errorf("version 1 with a move rewritten: %v", err)
	}
	c = decode(func(m map[string]any) {
		ps := m["pairs"].([]any)
		m["pairs"] = append(ps[:1:1], ps[2:]...) // pairs[1] is (τ.b!, b!)
	})
	if err := cert.Verify(c); err == nil || !strings.Contains(err.Error(), "unanswered out a!") {
		t.Errorf("version 1 without (τ.b!, b!): %v, want an unanswered a! challenge", err)
	}
	c = decode(func(m map[string]any) { m["version"] = 3 })
	if err := cert.Verify(c); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("version 3: %v, want an unsupported version", err)
	}
}

// TestHandCraftedStrategiesRejected feeds the verifier adversarial
// certificates built by hand — claims no engine would emit — and checks each
// is refused for the right reason: the verifier re-derives everything, so a
// forged observation cannot survive.
func TestHandCraftedStrategiesRejected(t *testing.T) {
	neg := func(p, q string, weak bool, nodes ...cert.Strategy) *cert.Certificate {
		return &cert.Certificate{
			Version: cert.Version, Relation: cert.RelBarbed, Weak: weak,
			Related: false, P: p, Q: q, Nodes: nodes,
		}
	}
	cases := []struct {
		name string
		crt  *cert.Certificate
	}{
		{"empty strategy", neg("a!", "b!", false)},
		{"root attacks an unrelated pair", neg("a!", "b!", false,
			cert.Strategy{P: "c!", Q: "d!", Kind: "barb", Side: "left", Label: "c"})},
		{"bad attacker side", neg("a!", "b!", false,
			cert.Strategy{P: "a!", Q: "b!", Kind: "barb", Side: "middle", Label: "a"})},
		{"barb leaf with replies", neg("a!", "b!", false,
			cert.Strategy{P: "a!", Q: "b!", Kind: "barb", Side: "left", Label: "a",
				Replies: []cert.Reply{{To: "0", Next: 0}}})},
		{"attacker lacks the claimed barb", neg("a!", "b!", false,
			cert.Strategy{P: "a!", Q: "b!", Kind: "barb", Side: "left", Label: "z"})},
		{"both sides barb", neg("a! + c!", "a!", false,
			cert.Strategy{P: "a! + c!", Q: "a!", Kind: "barb", Side: "left", Label: "a"})},
		{"defender matches the barb weakly", neg("a!", "tau.a!", true,
			cert.Strategy{P: "a!", Q: "tau.a!", Kind: "barb", Side: "left", Label: "a"})},
		{"kind invalid for the relation", neg("a!", "b!", false,
			cert.Strategy{P: "a!", Q: "b!", Kind: "react", Side: "left", Ch: "a"})},
		{"positive without a relation", &cert.Certificate{
			Version: cert.Version, Relation: cert.RelStep, Related: true, P: "a!", Q: "b!"}},
	}
	for _, cse := range cases {
		if err := cert.Verify(cse.crt); err == nil {
			t.Errorf("%s: forged certificate accepted", cse.name)
		}
	}
}

// TestVerifierBudgets: the work and closure bounds fail closed — a genuine
// certificate is rejected with a budget error, not accepted unchecked.
func TestVerifierBudgets(t *testing.T) {
	ch := newCertifying()
	crt, _ := pairCert(t, ch, cert.RelLabelled, "a! | b!", "a!.b! + b!.a!", false)
	v := &cert.Verifier{MaxWork: 1}
	if err := v.Verify(crt); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("MaxWork=1 verification: got %v, want a budget error", err)
	}
	// A sane budget accepts the same certificate.
	v = &cert.Verifier{MaxWork: 2_000_000, MaxClosure: 8192}
	if err := v.Verify(crt); err != nil {
		t.Errorf("explicit default budgets rejected a valid certificate: %v", err)
	}
}

// TestOutLabel pins the canonical output-label format shared by the prover's
// recorder and the verifier — the single point of coupling between them.
func TestOutLabel(t *testing.T) {
	if got := cert.OutLabel("a", []string{"b", "c"}, false, nil); got != "a!(b,c)" {
		t.Errorf("free output label = %q", got)
	}
	if got := cert.OutLabel("a", nil, false, nil); got != "a!()" {
		t.Errorf("empty output label = %q", got)
	}
	if got := cert.OutLabel("a", []string{"x"}, true, []string{"x"}); got != "a!(nu x;x)" {
		t.Errorf("bound output label = %q", got)
	}
}

// TestVerifyRefusesTooDeepTerm: a certificate naming a term nested past
// parser.MaxDepth is refused with an error wrapping parser.ErrTooDeep, on
// the pair-relation and the axioms path alike, and the error quotes only
// an excerpt of the term.
func TestVerifyRefusesTooDeepTerm(t *testing.T) {
	deep := strings.Repeat("a!.", parser.MaxDepth) + "a!" // MaxDepth+1 prefixes
	for _, c := range []*cert.Certificate{
		{Relation: cert.RelLabelled, Related: true},
		{Relation: cert.RelOneStep},
		{Relation: cert.RelCongruence, Related: true},
		{Relation: cert.RelAxioms, Related: true, Proof: &cert.Proof{}},
	} {
		c.Version, c.P, c.Q = cert.Version, deep, "0"
		err := cert.Verify(c)
		if !errors.Is(err, parser.ErrTooDeep) {
			t.Errorf("%s: err = %v, want parser.ErrTooDeep", c.Relation, err)
			continue
		}
		if n := len(err.Error()); n >= 1<<10 {
			t.Errorf("%s: error is %d bytes, want under 1 KiB", c.Relation, n)
		}
	}
}
