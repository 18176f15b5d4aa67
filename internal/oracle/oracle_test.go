package oracle

import (
	"context"
	"errors"
	"strings"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/parser"
	brand "bpi/internal/rand"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// testBudget keeps the in-test sweep quick; CI and bpifuzz run much larger
// budgets.
func testBudget(t *testing.T) int {
	if testing.Short() {
		return 70
	}
	return 210
}

// TestLawsHoldOnBudget: the whole registry (daemon included) on a bounded
// seeded sweep — the in-test twin of `bpifuzz -budget N`.
func TestLawsHoldOnBudget(t *testing.T) {
	env := NewEnv()
	d, err := StartDaemon(service.Config{Workers: 4})
	if err != nil {
		t.Fatalf("daemon: %v", err)
	}
	defer d.Close()
	env.Daemon = d

	rep, err := Run(context.Background(), env, Config{Seed: 1, Budget: testBudget(t)})
	if err != nil {
		t.Fatalf("fuzz run: %v", err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation:\n%s", v)
	}
	if rep.Ran != testBudget(t) {
		t.Errorf("ran %d of %d iterations", rep.Ran, testBudget(t))
	}
	for law, n := range rep.Errors {
		// Engine errors are tolerated (budget exhaustion on a huge term)
		// but should be rare; a flood means the generator profile is off.
		if n > rep.PerLaw[law]/4 {
			t.Errorf("law %s: %d/%d iterations errored", law, n, rep.PerLaw[law])
		}
	}
}

// brokenLaw deliberately claims that every generated pair is strongly
// labelled-bisimilar — false — so the fuzzer must find a violation, shrink
// it to a trivial pair, and reproduce it from the printed seed.
func brokenLaw() Law {
	return Law{
		Name:   "test/always-equiv",
		Doc:    "deliberately false: all pairs are bisimilar",
		Config: brand.OracleConfig(),
		Gen: func(g *brand.Gen) (syntax.Proc, syntax.Proc, string) {
			return g.Term(), g.Term(), "independent"
		},
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			r, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
			if err != nil {
				return "", err
			}
			if !r.Related {
				return "pair is not bisimilar (as expected — the law is a plant)", nil
			}
			return "", nil
		},
	}
}

// TestBrokenLawIsCaughtShrunkAndReproducible is the acceptance harness for
// the shrinker: a seeded violation must shrink to ≤ 6 AST nodes and replay
// from its printed repro seed.
func TestBrokenLawIsCaughtShrunkAndReproducible(t *testing.T) {
	env := NewEnv()
	law := brokenLaw()
	rep, err := Run(context.Background(), env, Config{
		Seed: 7, Budget: 50, Laws: []Law{law}, MaxViolations: 3,
	})
	if err != nil {
		t.Fatalf("fuzz run: %v", err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("the deliberately broken law produced no violation")
	}
	for _, v := range rep.Violations {
		p, err := parser.Parse(v.P)
		if err != nil {
			t.Fatalf("shrunk p %q does not parse: %v", v.P, err)
		}
		q, err := parser.Parse(v.Q)
		if err != nil {
			t.Fatalf("shrunk q %q does not parse: %v", v.Q, err)
		}
		if n := syntax.Size(p) + syntax.Size(q); n > 6 {
			t.Errorf("shrunk counterexample has %d AST nodes (> 6):\n%s", n, v)
		}

		// Reproduce: a fresh run seeded with the printed repro seed and a
		// budget of one must rediscover the identical shrunk pair.
		again, err := Run(context.Background(), env, Config{
			Seed: v.ReproSeed, Budget: 1, Laws: []Law{law},
		})
		if err != nil {
			t.Fatalf("repro run: %v", err)
		}
		if len(again.Violations) != 1 {
			t.Fatalf("repro run found %d violations, want 1", len(again.Violations))
		}
		got := again.Violations[0]
		if got.P != v.P || got.Q != v.Q || got.OrigP != v.OrigP || got.OrigQ != v.OrigQ {
			t.Errorf("repro mismatch:\n  first: p=%s q=%s (orig %s / %s)\n  again: p=%s q=%s (orig %s / %s)",
				v.P, v.Q, v.OrigP, v.OrigQ, got.P, got.Q, got.OrigP, got.OrigQ)
		}
	}
}

// TestViolationPersistRoundTrip: a shrunk violation written with WriteCase
// loads back and re-checks under its law.
func TestViolationPersistRoundTrip(t *testing.T) {
	env := NewEnv()
	dir := t.TempDir()
	rep, err := Run(context.Background(), env, Config{
		Seed: 11, Budget: 30, Laws: []Law{brokenLaw()}, OutDir: dir, MaxViolations: 1,
	})
	if err != nil {
		t.Fatalf("fuzz run: %v", err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation to persist")
	}
	cases, err := LoadCases(dir)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(cases) != 1 {
		t.Fatalf("loaded %d cases, want 1", len(cases))
	}
	c := cases[0]
	if c.Law != "test/always-equiv" || c.Seed != rep.Violations[0].ReproSeed {
		t.Errorf("case metadata mismatch: %+v vs %+v", c, rep.Violations[0])
	}
	// The planted law still "fails" on the stored pair — which here proves
	// the stored pair round-tripped through print/parse with its behaviour
	// intact.
	detail, err := CheckCase(context.Background(), env, []Law{brokenLaw()}, c)
	if err != nil {
		t.Fatalf("recheck: %v", err)
	}
	if detail == "" {
		t.Errorf("stored counterexample no longer violates the planted law: %+v", c)
	}
}

// TestRegressionCorpus re-checks every persisted case under
// testdata/fuzz/regressions (repo-level corpus): all must pass their law
// now — they are regression guards for violations fixed in the past, plus
// curated tricky pairs.
func TestRegressionCorpus(t *testing.T) {
	cases, err := LoadCases("../../testdata/fuzz/regressions")
	if err != nil {
		t.Fatalf("load corpus: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("regression corpus is empty — expected seeded cases")
	}
	env := NewEnv()
	for _, c := range cases {
		detail, err := CheckCase(context.Background(), env, nil, c)
		if err != nil {
			t.Errorf("%s: %v", c.File, err)
			continue
		}
		if detail != "" {
			t.Errorf("%s: law %s violated again: %s\n  p = %s\n  q = %s",
				c.File, c.Law, detail, c.P, c.Q)
		}
	}
}

// TestLawByNameRejectsUnknown guards the CLI's -laws flag.
func TestLawByNameRejectsUnknown(t *testing.T) {
	if _, err := LawByName([]string{"no/such-law"}); err == nil {
		t.Fatal("expected an error for an unknown law")
	}
	laws, err := LawByName([]string{"theorem1/strong", "engines/agree"})
	if err != nil {
		t.Fatal(err)
	}
	if len(laws) != 2 || laws[0].Name != "theorem1/strong" {
		t.Fatalf("unexpected selection: %v", laws)
	}
	var names []string
	for _, l := range Registry() {
		names = append(names, l.Name)
	}
	if len(names) < 7 {
		t.Fatalf("registry shrank: %s", strings.Join(names, ", "))
	}
}

// TestEnginesAgreeBatchLeg runs engines/agree against a live daemon on
// pairs covering both verdicts and both modes: the single-query and the
// batch leg must hold (empty detail, no engine error).
func TestEnginesAgreeBatchLeg(t *testing.T) {
	d, err := StartDaemon(service.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	env := NewEnv()
	env.Daemon = d
	law := lawEnginesAgree()
	for _, pq := range [][2]string{
		{"a! | b!", "a!.b! + b!.a!"}, // related, strong and weak
		{"tau.a!", "a!"},             // related weak only
		{"a!", "b!"},                 // unrelated in both modes
		{"nu x.a!(x)", "nu y.a!(y)"}, // restriction + alpha-equivalence
	} {
		p, q := mustParse(t, pq[0]), mustParse(t, pq[1])
		detail, err := law.Check(context.Background(), env, p, q)
		if err != nil {
			t.Fatalf("(%s, %s): engine error: %v", pq[0], pq[1], err)
		}
		if detail != "" {
			t.Errorf("(%s, %s): engines/agree violated: %s", pq[0], pq[1], detail)
		}
	}
}

// TestBatchAgreeCatchesCacheMiss: with a one-entry verdict cache the two
// cache keys of the four rows evict each other, so the repeated batch
// cannot be served entirely from the cache and the batch leg must say so.
func TestBatchAgreeCatchesCacheMiss(t *testing.T) {
	d, err := StartDaemon(service.Config{Workers: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	p, q := mustParse(t, "a! | b!"), mustParse(t, "a!.b! + b!.a!")
	detail, err := batchAgree(context.Background(), d, p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(detail, "missed the verdict cache") {
		t.Fatalf("detail = %q, want a verdict-cache miss", detail)
	}
}

// TestBatchAgreeSurvivesCancellation: a cancelled context is an engine
// error, never a violation.
func TestBatchAgreeSurvivesCancellation(t *testing.T) {
	d, err := StartDaemon(service.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	detail, err := batchAgree(ctx, d, mustParse(t, "a! | b!"), mustParse(t, "a!.b!"))
	if detail != "" {
		t.Errorf("cancelled run reported a violation: %s", detail)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run: err = %v, want context.Canceled", err)
	}
}

func mustParse(t *testing.T, src string) syntax.Proc {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
