// Package equiv decides the behavioural equivalences of the bπ-calculus:
// strong and weak barbed bisimilarity (Definition 3), step bisimilarity
// (Definition 5), labelled bisimilarity (Definitions 7/8), the one-step
// relations ~+ / ≈+ (Definitions 11/15) and the congruences ~c / ≈c closed
// under substitutions (Section 4). Checker.Decide answers all five: a
// Query names the relation, the mode and the pair.
//
// All checkers work on-the-fly over canonically-keyed *pairs* of terms: from
// a pair (p,q) the engine derives matching obligations whose candidates are
// successor pairs, then computes the greatest fixpoint by removing violated
// pairs. Fresh names — reservoir names probing inputs, and canonical names
// for extruded bound outputs — are chosen deterministically *per pair*
// (avoiding fn(p)∪fn(q)), so the two sides of a comparison always agree on
// them; this is the standard finite-universe argument for early
// bisimulation, sound because bisimilarity is closed under injective
// renamings (Lemma 18 of the paper).
//
// Terms are interned simplified (syntax.Simplify), which preserves every
// relation but ~c/≈c: those quantify over substitutions, and Simplify drops
// matches on distinct free names that a fusion would fire. A congruence
// query therefore applies each fusion to the terms as given, before
// interning, and a congruence certificate names the printed input terms.
//
// # Concurrency
//
// Each query runs sequentially: the engine expands the pair graph in
// discovery order, then sweeps the greatest fixpoint with a
// reverse-dependency worklist in O(edges). Parallelism lives at the query
// level instead. All memoised semantic data (transitions, discards, τ- and
// autonomous closures) lives in a Store, one term table under one mutex
// that interns terms to dense uint64 IDs and is safe for concurrent use; a
// Checker is its configuration plus one store, keeps no verdicts, and may
// itself be shared across goroutines. Independent queries can therefore run
// concurrently over one store (NewCheckerWithStore) and reuse each other's
// derivations. bpid does not: each of its requests gets a Checker on a
// fresh store (NewChecker), so no term outlives the request that interned
// it. The only verdicts kept are a ~+ or ~c query's own labelled
// sub-verdicts, for the length of that query.
package equiv

import (
	"math"

	"bpi/internal/names"
	"bpi/internal/obs"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Checker decides equivalences against a fixed semantic system: its
// configuration plus a Store, which memoises term data across queries. It
// keeps no verdicts, so it is safe for concurrent use without a lock; the
// exported fields must be set before the first query and not mutated
// afterwards.
type Checker struct {
	// MaxPairs bounds the number of explored pairs per query (default 20000,
	// at most math.MaxInt32: the engine numbers pairs with int32).
	MaxPairs int
	// MaxClosure bounds the size of a τ-closure (default 2048).
	MaxClosure int
	// Obs, when non-nil, receives spans (equiv.run → equiv.explore →
	// equiv.expand, equiv.fixpoint) and engine counters from every query.
	// Like the budget fields it must be set before the first query. The
	// nil default is free: call sites guard with obs's nil-safe no-ops,
	// proven allocation-free by TestDisabledObsZeroAlloc.
	Obs *obs.Tracer
	// Certify makes every verdict carry a checkable certificate
	// (Result.Cert, see internal/cert).
	Certify bool

	store *Store
}

// NewChecker returns a Checker over the given system (nil means the empty
// definitions environment).
func NewChecker(sys *semantics.System) *Checker {
	return NewCheckerWithStore(NewStore(sys))
}

// NewCheckerWithStore returns a Checker sharing an existing term store (and
// its semantic system), so memoised transitions and closures are reused
// across checkers.
func NewCheckerWithStore(store *Store) *Checker {
	return &Checker{store: store}
}

// Store returns the checker's term store, for sharing with other checkers.
func (c *Checker) Store() *Store { return c.store }

func (c *Checker) maxPairs() int {
	if c.MaxPairs <= 0 {
		return 20000
	}
	return min(c.MaxPairs, math.MaxInt32)
}

// closure returns ti's closure under the moves of kind k, at most
// MaxClosure terms (default 2048).
func (c *Checker) closure(ti *termInfo, k moveKind) ([]*termInfo, error) {
	budget := c.MaxClosure
	if budget <= 0 {
		budget = 2048
	}
	return c.store.closure(ti, k, budget)
}

// ErrBudget reports that a query exceeded its exploration budget; the
// verdict is inconclusive.
type ErrBudget struct{ What string }

func (e ErrBudget) Error() string { return "equiv: budget exhausted while exploring " + e.What }

// internPair interns both terms of a query, p first.
func (c *Checker) internPair(p, q syntax.Proc) (*termInfo, *termInfo, error) {
	pi, err := c.store.intern(p)
	if err != nil {
		return nil, nil, err
	}
	qi, err := c.store.intern(q)
	if err != nil {
		return nil, nil, err
	}
	return pi, qi, nil
}

// Derived observations -------------------------------------------------------

// inputShapes returns the set of (channel, arity) pairs at which ti listens.
func inputShapes(ti *termInfo) map[shape]bool {
	out := map[shape]bool{}
	for _, t := range ti.trans {
		if t.Act.IsInput() {
			out[shape{t.Act.Subj, len(t.Act.Objs)}] = true
		}
	}
	return out
}

type shape struct {
	ch    names.Name
	arity int
}

// freeUnion returns a fresh set fn(p) ∪ fn(q) (the memoised per-term sets
// are shared and must not be mutated).
func freeUnion(p, q *termInfo) names.Set {
	return p.freeNames().Clone().AddAll(q.freeNames())
}
