package parser

import (
	"os"
	"path/filepath"
	"testing"

	"bpi/internal/lts"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// TestFixturesRoundTrip parses every testdata/*.bpi source shipped with the
// repo and round-trips each definition body and the main term through the
// printer: parse → String → parse again must be syntactically equal, and
// the parsed environment must validate. The fixtures double as the parser's
// compatibility contract — if the concrete syntax drifts, this catches it
// on real programs rather than generated ones.
func TestFixturesRoundTrip(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.bpi"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least the election/mobility/token_ring fixtures, got %v", files)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ParseProgram(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if err := prog.Env.ValidateWith(nil); err != nil {
			t.Errorf("%s: environment does not validate: %v", f, err)
		}
		if prog.Main == nil {
			t.Fatalf("%s: no main term", f)
		}
		roundTrip := func(label string, p syntax.Proc) {
			printed := syntax.String(p)
			back, err := Parse(printed)
			if err != nil {
				t.Fatalf("%s/%s: reparse of %q: %v", f, label, printed, err)
			}
			if !syntax.Equal(p, back) {
				t.Errorf("%s/%s: round-trip changed the term:\n before %s\n after  %s",
					f, label, printed, syntax.String(back))
			}
		}
		roundTrip("main", prog.Main)
		for _, id := range prog.Env.Idents() {
			d, _ := prog.Env.Lookup(id)
			roundTrip(id, d.Body)
		}
	}
}

// TestTokenRingFixtureFinite pins the token_ring fixture's behaviour: the
// recursive three-node ring circulates one token forever, so its autonomous
// LTS is finite — the initial state (injector still a separate component)
// followed by the 3-cycle of token-in-flight states on b, c, a, where the
// re-offered a!(tok) now lives inside node c's unfolding. The
// internal/protocols TokenRing generator is this fixture's one-lap finite
// unrolling, promoted to a conformance scenario.
func TestTokenRingFixtureFinite(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "token_ring.bpi"))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	g, err := lts.Explore(semantics.NewSystem(prog.Env), []syntax.Proc{prog.Main},
		lts.Options{AutonomousOnly: true, MaxStates: 64})
	if err != nil {
		t.Fatal(err)
	}
	if g.Truncated {
		t.Fatalf("token ring LTS truncated — fixture no longer finite")
	}
	if g.NumStates() != 4 {
		t.Errorf("token ring has %d states, want 4 (initial + token on b, c, a)", g.NumStates())
	}
}
