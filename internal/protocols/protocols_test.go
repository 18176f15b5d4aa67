package protocols

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// TestSizes pins the closed-form state counts every generator advertises
// against an exhaustive LTS exploration — the catalogue's healthy entries
// plus one larger instance per family, so each formula is exercised beyond
// the sizes the conformance tests run at.
func TestSizes(t *testing.T) {
	var cases []Scenario
	for _, s := range Catalogue() {
		if s.Fault.Kind == FaultNone {
			cases = append(cases, s)
		}
	}
	cases = append(cases,
		GossipLine(6, Fault{}),    // 8
		GossipStar(5, Fault{}),    // 33
		GossipTree(2, 3, Fault{}), // 677 order ideals
		Election(5, Fault{}),      // 157
		Multicast(5, Fault{}),     // 63
		BBC(6, Fault{}),           // 9
		TokenRing(6, Fault{}),     // 8
	)
	sys := semantics.NewSystem(nil)
	for _, s := range cases {
		if s.States == 0 {
			t.Errorf("%s: healthy scenario advertises no state count", s.Name)
			continue
		}
		g, err := lts.Explore(sys, []syntax.Proc{s.Impl}, lts.Options{
			AutonomousOnly: true, MaxStates: 1 << 17,
		})
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if g.Truncated {
			t.Fatalf("%s: truncated at %d states", s.Name, g.NumStates())
		}
		if g.NumStates() != s.States {
			t.Errorf("%s: %d states, generator advertises %d", s.Name, g.NumStates(), s.States)
		}
	}
}

// TestPinnedPairs pins the exact explored-pair count of every healthy
// catalogue entry on the sequential engine. The counts are the conformance
// suite's cost model (the bench ladder extrapolates from them) and a
// determinism tripwire: any change to exploration order, discard handling
// or weak closures moves at least one of these numbers.
func TestPinnedPairs(t *testing.T) {
	want := map[string]int{
		"gossip/line-2": 4, "gossip/line-3": 5, "gossip/line-4": 6,
		"gossip/star-2": 7, "gossip/star-3": 21, "gossip/star-4": 65,
		"gossip/tree-2x1": 7, "gossip/tree-2x2": 96, "gossip/tree-3x2": 12772,
		"election-2": 22, "election-3": 173, "election-4": 1106,
		"multicast-2": 35, "multicast-3": 135, "multicast-4": 527,
		"bbc-2": 5, "bbc-3": 6, "bbc-4": 7,
		"tokenring-2": 4, "tokenring-3": 5, "tokenring-4": 6,
	}
	seen := map[string]bool{}
	for _, s := range Catalogue() {
		if s.Fault.Kind != FaultNone {
			continue
		}
		r, err := Decide(NewChecker(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !r.Related {
			t.Errorf("%s: healthy scenario not equivalent: %s", s.Name, r.Reason)
		}
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("%s: healthy catalogue entry has no pinned pair count", s.Name)
			continue
		}
		seen[s.Name] = true
		if r.Pairs != w {
			t.Errorf("%s: %d pairs explored, pinned %d", s.Name, r.Pairs, w)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("pinned entry %s missing from catalogue", name)
		}
	}
}

// TestCatalogueConform is the conformance matrix: every catalogue
// scenario, decided on the pair engine and the partition-refinement
// engine. All verdicts must equal WantEquiv, and every certificate —
// positive and negative, strong and weak — must pass the independent
// verifier.
func TestCatalogueConform(t *testing.T) {
	for _, s := range Catalogue() {
		seq, err := Decide(NewChecker(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if seq.Related != s.WantEquiv {
			t.Errorf("%s: verdict %v, want %v (%s)", s.Name, seq.Related, s.WantEquiv, seq.Reason)
		}
		if seq.Cert == nil {
			t.Errorf("%s: no certificate", s.Name)
		} else if err := cert.Verify(seq.Cert); err != nil {
			t.Errorf("%s: certificate rejected: %v", s.Name, err)
		}
		refOK, refCert, err := Refine(s, 1<<17)
		if err != nil {
			t.Fatalf("%s: refiner: %v", s.Name, err)
		}
		if refOK != s.WantEquiv {
			t.Errorf("%s: refiner verdict %v, want %v", s.Name, refOK, s.WantEquiv)
		}
		if refCert != nil {
			if err := cert.Verify(refCert); err != nil {
				t.Errorf("%s: refiner certificate rejected: %v", s.Name, err)
			}
		}
	}
}

// TestFaultsDistinguished spells out the negative half of the acceptance
// criteria on its own: every fault kind appears in the catalogue for every
// algorithm family, and every fault-injected variant is distinguished from
// its spec with a verifying certificate carrying the distinguishing
// strategy.
func TestFaultsDistinguished(t *testing.T) {
	kinds := map[string]map[FaultKind]bool{}
	for _, s := range Catalogue() {
		if s.Fault.Kind == FaultNone {
			continue
		}
		if kinds[s.Algo] == nil {
			kinds[s.Algo] = map[FaultKind]bool{}
		}
		kinds[s.Algo][s.Fault.Kind] = true
		if s.WantEquiv {
			t.Errorf("%s: fault variant expects equivalence", s.Name)
		}
		r, err := Decide(NewChecker(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if r.Related {
			t.Errorf("%s: fault not distinguished", s.Name)
			continue
		}
		if r.Cert == nil {
			t.Errorf("%s: negative verdict has no certificate", s.Name)
			continue
		}
		if err := cert.Verify(r.Cert); err != nil {
			t.Errorf("%s: distinguishing certificate rejected: %v", s.Name, err)
		}
	}
	for _, algo := range []string{"gossip", "election", "multicast", "bbc", "tokenring"} {
		for _, k := range []FaultKind{FaultCrashed, FaultDeaf, FaultLossy} {
			if !kinds[algo][k] {
				t.Errorf("catalogue has no %s/%s variant", algo, k)
			}
		}
	}
}

// TestLossyStepInvisibility pins the library's central observability fact:
// in the single-hop algorithms a lossy drop is invisible to BOTH step
// equivalences — strongly because label-blind matching lets the spec answer
// the drop-τ by actually delivering, weakly because answers are arbitrary
// autonomous sequences — and only weak BARBED bisimilarity under the
// ν(trigger) noisy wrapper observes it. If an engine change flips one of
// these verdicts, the catalogue's relation assignments must be revisited.
func TestLossyStepInvisibility(t *testing.T) {
	for _, s := range []Scenario{
		GossipStar(3, Fault{FaultLossy, 2}),
		Election(2, Fault{FaultLossy, 2}),
	} {
		if s.Rel != cert.RelBarbed || !s.Weak {
			t.Fatalf("%s: generator no longer states lossy conformance in weak barbed", s.Name)
		}
		for _, weak := range []bool{false, true} {
			r, err := NewChecker().Decide(context.Background(), equiv.Query{Rel: cert.RelStep, Weak: weak, P: s.Impl, Q: s.Spec})
			if err != nil {
				t.Fatalf("%s: %v", s.Name, err)
			}
			if !r.Related {
				t.Errorf("%s: lossy drop visible to step equivalence (weak=%v): %s",
					s.Name, weak, r.Reason)
			}
		}
		r, err := Decide(NewChecker(), s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if r.Related {
			t.Errorf("%s: weak barbed fails to observe the lossy drop", s.Name)
		}
	}
}

// TestInject checks the fault rewrites at the term level.
func TestInject(t *testing.T) {
	base := GossipLine(3, Fault{}).Impl
	parts := syntax.ParList(base)

	crashed := Inject(base, Fault{FaultCrashed, 2})
	if got, want := len(syntax.ParList(crashed)), len(parts)-1; got != want {
		t.Errorf("crashed: %d components, want %d", got, want)
	}

	deaf := Inject(base, Fault{FaultDeaf, 2})
	if s := syntax.String(deaf); !strings.Contains(s, "deaf2?") {
		t.Errorf("deaf: station not re-pointed at deaf channel:\n%s", s)
	}

	lossy := Inject(base, Fault{FaultLossy, 2})
	if s := syntax.String(lossy); !strings.Contains(s, "+ tau") {
		t.Errorf("lossy: no drop branch injected:\n%s", s)
	}

	// Node clamping: out-of-range nodes hit the last station, and a
	// faultless injection is the identity.
	if got, want := syntax.String(Inject(base, Fault{FaultCrashed, 99})),
		syntax.String(Inject(base, Fault{FaultCrashed, 3})); got != want {
		t.Errorf("clamp high: %s != %s", got, want)
	}
	if !syntax.Equal(Inject(base, Fault{}), base) {
		t.Error("FaultNone injection is not the identity")
	}

	// Restrictions are peeled and re-applied: the multicast fault variant
	// keeps its ν binders.
	m := Multicast(3, Fault{FaultCrashed, 2}).Impl
	if _, ok := m.(syntax.Res); !ok {
		t.Errorf("multicast fault variant lost its restriction: %s", syntax.String(m))
	}
}

// TestCatalogue checks the catalogue's own integrity: unique names, ByName
// round-trips, ≥3 healthy sizes per algorithm family, and every entry
// decidable within the package checker budget (implied by the other tests,
// asserted cheaply here via the scenario fields).
func TestCatalogue(t *testing.T) {
	seen := map[string]bool{}
	healthy := map[string]int{}
	for _, s := range Catalogue() {
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %s", s.Name)
		}
		seen[s.Name] = true
		if s.Fault.Kind == FaultNone {
			healthy[s.Algo]++
		}
		got, ok := ByName(s.Name)
		if !ok || got.Name != s.Name {
			t.Errorf("ByName(%s) failed", s.Name)
		}
		if s.Rel != cert.RelStep && s.Rel != cert.RelBarbed {
			t.Errorf("%s: unknown relation %q", s.Name, s.Rel)
		}
	}
	for _, algo := range []string{"gossip", "election", "multicast", "bbc", "tokenring"} {
		if healthy[algo] < 3 {
			t.Errorf("%s: %d healthy sizes in catalogue, want >= 3", algo, healthy[algo])
		}
	}
	if _, ok := ByName("no-such-scenario"); ok {
		t.Error("ByName invented a scenario")
	}
	for _, s := range Ladder() {
		if s.Fault.Kind != FaultNone || !s.WantEquiv {
			t.Errorf("ladder rung %s is not a healthy scenario", s.Name)
		}
	}
}

// TestDecideUnknownRel pins that Decide and Refine both refuse a relation
// that is not a conformance relation, a paper relation or not.
func TestDecideUnknownRel(t *testing.T) {
	for _, rel := range []string{cert.RelLabelled, "nonsense"} {
		s := GossipLine(2, Fault{})
		s.Rel = rel
		if _, err := Decide(NewChecker(), s); err == nil {
			t.Errorf("Decide accepted the relation %q", rel)
		}
		if _, _, err := Refine(s, 0); err == nil {
			t.Errorf("Refine accepted the relation %q", rel)
		}
	}
}

// TestFaultString pins the fault naming used in scenario names and the CLI.
func TestFaultString(t *testing.T) {
	if got := (Fault{}).String(); got != "healthy" {
		t.Errorf("healthy fault prints %q", got)
	}
	if got := (Fault{FaultDeaf, 2}).String(); got != "deaf-2" {
		t.Errorf("deaf fault prints %q", got)
	}
	if got := fmt.Sprintf("%s", Fault{FaultLossy, 1}); got != "lossy-1" {
		t.Errorf("lossy fault prints %q", got)
	}
}
