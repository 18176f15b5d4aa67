// Package oracle is the differential & metamorphic testing subsystem: a
// registry of cross-layer laws that a correct reproduction of the paper
// must satisfy on every term pair, a seeded fuzz loop that hunts for
// violations, and a greedy structural shrinker that minimises any
// counterexample before it is reported.
//
// The laws are the paper's theorems read as executable invariants:
//
//   - Theorem 1: strong (and weak) barbed, step and labelled bisimilarity
//     coincide on image-finite processes — here, on finite generated terms.
//   - Theorems 6 & 7: the §5 prover (axioms.Decide) agrees with the
//     semantic congruence checker in both directions (soundness AND
//     completeness) on finite terms.
//   - Tables 6/7: every axiom instance rewrites a term to a semantically
//     congruent one.
//   - Section 4: ~c is closed under name substitutions.
//   - Engineering invariants on top of the paper: the pair engine and a
//     live bpid daemon — single queries, /v1/equiv/batch and LRU
//     verdict-cache hits alike — must return the same verdicts, and every
//     batch verdict must carry a certificate the verifier accepts.
//   - Certificates: every verdict's replayable proof object (internal/cert)
//     must be accepted by the independent verifier, on a fresh and on a
//     warm store alike.
//   - Persistence: a certified verdict survives the full ledger lifecycle
//     (internal/ledger) — append, seal, reopen — unchanged, certificate and
//     inclusion proof included.
//   - Protocol conformance: every internal/protocols scenario — healthy or
//     fault-injected — gets the verdict its spec expects, in its own
//     relation, on every engine, certificates included.
//
// Everything is reproducible: iteration i of a run with seed s draws all
// randomness from mix(s + i), and every violation reports the exact
// `bpifuzz -seed` invocation that replays it alone.
package oracle

import (
	"context"
	"fmt"

	"bpi/internal/axioms"
	"bpi/internal/equiv"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// Env bundles the engines a law check may consult. Checkers share nothing:
// agreement between them is evidence, not tautology.
type Env struct {
	// Seq is the reference checker.
	Seq *equiv.Checker
	// NewProver returns a fresh §5 prover (a Prover is single-goroutine).
	NewProver func() *axioms.Prover
	// Daemon is an optional live bpid instance; laws that need it are
	// skipped when nil.
	Daemon *Daemon
}

// NewEnv returns an Env with a fresh checker and no daemon (attach one
// with StartDaemon if the engines/agree law should cover the service
// layer).
func NewEnv() *Env {
	return &Env{
		Seq:       equiv.NewChecker(nil),
		NewProver: func() *axioms.Prover { return axioms.NewProver(nil) },
	}
}

// Law is one cross-layer invariant. Gen draws a pair tuned to the law's
// cost profile (e.g. restriction-free terms with two free names for
// prover-backed laws); Check returns a non-empty detail string when the
// law is violated on (p, q).
type Law struct {
	Name string
	Doc  string
	// Gen draws a pair for this law from g (g is seeded per iteration).
	// The tag names the generation path taken (equiv-mutant, break-mutant,
	// independent, an axiom name, …) and is echoed in violation reports.
	Gen func(g *brand.Gen) (p, q syntax.Proc, tag string)
	// Config is the generation profile Gen's argument is built with.
	Config brand.Config
	// Check evaluates the law; detail == "" means it holds (or holds
	// vacuously). err reports an engine failure (budget, timeout), which
	// the fuzzer counts separately and never treats as a violation.
	Check func(ctx context.Context, env *Env, p, q syntax.Proc) (detail string, err error)
}

// Registry returns the full law registry. The slice is freshly allocated;
// callers may filter it.
func Registry() []Law {
	return []Law{
		lawTheorem1(false),
		lawTheorem1(true),
		lawInclusions(),
		lawDecideAgree(),
		lawAxiomInstances(),
		lawSubstClosure(),
		lawEnginesAgree(),
		lawObsConsistent(),
		lawCertChecks(),
		lawStressAgree(),
		lawLedgerRoundtrip(),
		lawProtocolsConform(),
	}
}

// LawByName filters the registry; unknown names return an error.
func LawByName(names []string) ([]Law, error) {
	all := Registry()
	if len(names) == 0 {
		return all, nil
	}
	byName := map[string]Law{}
	for _, l := range all {
		byName[l.Name] = l
	}
	var out []Law
	for _, n := range names {
		l, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("oracle: unknown law %q", n)
		}
		out = append(out, l)
	}
	return out, nil
}
