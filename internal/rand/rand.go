// Package rand generates random bπ-calculus terms for property-based tests
// and benchmarks. Generation is seeded and deterministic, with controls for
// term size, name pool, polyadicity and which constructors may appear, so a
// failing seed reproduces exactly.
package rand

import (
	"math/rand"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// Config controls term generation.
type Config struct {
	// Names is the free-name pool (defaults to a, b, c).
	Names []names.Name
	// MaxDepth bounds the AST depth (default 4).
	MaxDepth int
	// MaxArity bounds prefix polyadicity: payload sizes are drawn from
	// 0..MaxArity. A negative value forces every prefix to be nullary
	// (the uniform-arity fragment where Table 8 applies verbatim).
	MaxArity int
	// AllowRestriction, AllowMatch, AllowPar, AllowTau gate constructors.
	AllowRestriction bool
	AllowMatch       bool
	AllowPar         bool
	AllowTau         bool
	// Weights, when non-zero, biases the constructor choice instead of the
	// legacy uniform draw. Constructors whose Allow* gate is off are
	// treated as weight zero regardless.
	Weights Weights
}

// Weights assigns a relative frequency to each constructor. The zero value
// means "use the legacy uniform distribution" (which keeps historical seeds
// reproducing the exact same term streams).
type Weights struct {
	Nil, Out, In, Sum, Par, Res, Match, Tau int
}

func (w Weights) zero() bool {
	return w == Weights{}
}

// OracleConfig returns the generation profile used by the differential
// oracle (internal/oracle): restriction-free finite terms over a two-name
// pool, biased toward sums of short prefixes. This is the fragment where
// the §5 prover (axioms.Decide) is fast — few free names keep the world
// enumeration (Bell numbers) and the congruence fusion closure (n^n) small —
// while still exercising inputs, outputs, τ, choice, parallel and match.
func OracleConfig() Config {
	return Config{
		Names:            []names.Name{"a", "b"},
		MaxDepth:         3,
		MaxArity:         1,
		AllowRestriction: false,
		AllowMatch:       true,
		AllowPar:         true,
		AllowTau:         true,
		Weights:          Weights{Nil: 2, Out: 5, In: 5, Sum: 4, Par: 2, Res: 0, Match: 1, Tau: 2},
	}
}

// Default returns a configuration producing small finite terms exercising
// every finite constructor.
func Default() Config {
	return Config{
		Names:            []names.Name{"a", "b", "c"},
		MaxDepth:         4,
		MaxArity:         1,
		AllowRestriction: true,
		AllowMatch:       true,
		AllowPar:         true,
		AllowTau:         true,
	}
}

// Gen is a seeded term generator.
type Gen struct {
	cfg Config
	rng *rand.Rand
	// bound tracks binders introduced so far (usable as subjects/objects).
	counter int
}

// New returns a generator with the given seed.
func New(seed int64, cfg Config) *Gen {
	if len(cfg.Names) == 0 {
		cfg.Names = []names.Name{"a", "b", "c"}
	}
	if cfg.MaxDepth <= 0 {
		cfg.MaxDepth = 4
	}
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Term generates one random finite process.
func (g *Gen) Term() syntax.Proc {
	return g.term(g.cfg.MaxDepth, g.cfg.Names)
}

// Intn draws from the generator's seeded stream — for callers (the oracle
// law registry) that need auxiliary reproducible choices, e.g. which
// mutator or axiom to apply.
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// PickName draws one name from the configured pool.
func (g *Gen) PickName() names.Name { return g.pick(g.cfg.Names) }

// Pair generates two random terms over the same name pool — raw material for
// equivalence cross-checks.
func (g *Gen) Pair() (syntax.Proc, syntax.Proc) {
	return g.Term(), g.Term()
}

// Mutate produces a structural variant of p that is often (but not always)
// behaviourally equivalent: it draws uniformly from four of the
// equivalence-preserving rewrites of MutateEquiv, the free-name swap (which
// preserves equivalence only on swap-symmetric terms), and the τ-prefix
// breaker of MutateBreak. Useful to get a mix of equivalent and
// inequivalent pairs; use MutateEquiv / MutateBreak when the verdict must
// be known in advance. The draw sequence is kept identical to the original
// Mutate so historical seeds reproduce the same pairs.
func (g *Gen) Mutate(p syntax.Proc) syntax.Proc {
	switch g.rng.Intn(6) {
	case 0: // sound (S1): add nil summand
		return syntax.Choice(p, syntax.PNil)
	case 1: // sound (P1): parallel nil
		return syntax.Group(p, syntax.PNil)
	case 2: // sound (S2): duplicate summand
		return syntax.Choice(p, p)
	case 3: // sound (ν-garbage): wrap in fresh restriction
		return syntax.Restrict(p, g.freshName())
	case 4: // heuristic: swap two names (equiv iff p is swap-symmetric)
		ns := g.cfg.Names
		if len(ns) >= 2 {
			return syntax.Apply(p, names.FromSlices(
				[]names.Name{ns[0], ns[1]}, []names.Name{ns[1], ns[0]}))
		}
		return p
	default: // breaking (strong): prepend a τ
		return syntax.TauP(p)
	}
}

// MutateEquiv returns a term guaranteed strongly congruent (~c, hence also
// labelled-, step-, barbed- and one-step-bisimilar, strong and weak) to p.
// Every rewrite is an instance of a sound law of the system A (Tables 6/7)
// or a trivially sound structural identity:
//
//	p + 0 = p            (S1)
//	p | 0 = p            (P1)
//	p + p = p            (S2)
//	p + q = q + p        (S3, applied at the root when p is a sum)
//	νx p = p, x ∉ fn(p)  (garbage restriction; Table 7 pushes ν to nil)
//	[a=a](p, junk) = p   (true condition; junk is a random small term)
//	[a=b](p, p) = p      (C5)
//
// All cases are closed under substitution: fusions never map onto the fresh
// binder of the ν case, and [a=a] stays true under every σ.
func (g *Gen) MutateEquiv(p syntax.Proc) syntax.Proc {
	return g.equivOp(g.rng.Intn(numEquivOps), p)
}

// numEquivOps is the number of distinct MutateEquiv rewrites (table-tested
// one by one in mutate_test.go).
const numEquivOps = 7

func (g *Gen) equivOp(op int, p syntax.Proc) syntax.Proc {
	switch op {
	case 0:
		return syntax.Choice(p, syntax.PNil)
	case 1:
		return syntax.Group(p, syntax.PNil)
	case 2:
		return syntax.Choice(p, p)
	case 3:
		if s, ok := p.(syntax.Sum); ok {
			return syntax.Sum{L: s.R, R: s.L}
		}
		return syntax.Choice(syntax.PNil, p)
	case 4:
		return syntax.Restrict(p, g.freshName())
	case 5:
		a := g.pick(g.cfg.Names)
		junk := g.term(1, g.cfg.Names)
		return syntax.If(a, a, p, junk)
	default:
		a, b := g.pick(g.cfg.Names), g.pick(g.cfg.Names)
		return syntax.If(a, b, p, p)
	}
}

// MutateBreak returns a term guaranteed NOT strongly labelled-bisimilar
// (hence not strongly step-, barbed-, one-step-bisimilar or congruent) to
// the finite term p. Two families, each with a proof sketch:
//
//   - fresh-barb: d!.p, p + d!, p | d! for a name d fresh for p. The mutant
//     can broadcast on d; p has no free occurrence of d, so no derivative of
//     p ever exhibits the barb d̄. This breaks the weak equivalences too.
//   - τ-prefix: τ.p. On finite terms τ.p ≁ p: matching the move τ.p --τ--> p
//     demands an infinite descending chain of τ-derivatives of p bisimilar
//     to p (impossible on finite terms), and when p has a non-τ initial
//     move, τ.p cannot answer it at all. NOTE: τ.p ≈ p — this family
//     deliberately preserves the weak bisimilarities, so weak-level oracles
//     must treat MutateBreak verdicts as "strongly inequivalent" only.
func (g *Gen) MutateBreak(p syntax.Proc) syntax.Proc {
	return g.breakOp(g.rng.Intn(numBreakOps), p)
}

// numBreakOps is the number of distinct MutateBreak rewrites.
const numBreakOps = 4

func (g *Gen) breakOp(op int, p syntax.Proc) syntax.Proc {
	d := g.freshName()
	switch op {
	case 0:
		return syntax.Send(d, nil, p)
	case 1:
		return syntax.Choice(p, syntax.SendN(d))
	case 2:
		return syntax.Group(p, syntax.SendN(d))
	default:
		return syntax.TauP(p)
	}
}

func (g *Gen) freshName() names.Name {
	g.counter++
	return names.Name("r" + names.FreshMarker + itoa(g.counter))
}

func (g *Gen) pick(pool []names.Name) names.Name {
	return pool[g.rng.Intn(len(pool))]
}

func (g *Gen) arity() int {
	if g.cfg.MaxArity < 0 {
		return 0
	}
	return g.rng.Intn(g.cfg.MaxArity + 1)
}

// term generates a process of depth ≤ d with the given usable name pool.
func (g *Gen) term(d int, pool []names.Name) syntax.Proc {
	if !g.cfg.Weights.zero() {
		return g.weightedTerm(d, pool)
	}
	if d == 0 || g.rng.Intn(6) == 0 {
		return syntax.PNil
	}
	for {
		switch g.rng.Intn(8) {
		case 0, 1: // output prefix
			return g.output(d, pool)
		case 2, 3: // input prefix
			return g.input(d, pool)
		case 4: // sum
			return syntax.Choice(g.term(d-1, pool), g.term(d-1, pool))
		case 5: // par
			if !g.cfg.AllowPar {
				continue
			}
			return syntax.Group(g.term(d-1, pool), g.term(d-1, pool))
		case 6: // restriction
			if !g.cfg.AllowRestriction {
				continue
			}
			return g.restriction(d, pool)
		default:
			if g.cfg.AllowTau && g.rng.Intn(2) == 0 {
				return syntax.TauP(g.term(d-1, pool))
			}
			if !g.cfg.AllowMatch {
				continue
			}
			return syntax.If(g.pick(pool), g.pick(pool), g.term(d-1, pool), g.term(d-1, pool))
		}
	}
}

// weightedTerm draws the constructor from cfg.Weights (gated by the Allow*
// flags); used by oracle-profile generation.
func (g *Gen) weightedTerm(d int, pool []names.Name) syntax.Proc {
	w := g.cfg.Weights
	if !g.cfg.AllowPar {
		w.Par = 0
	}
	if !g.cfg.AllowRestriction {
		w.Res = 0
	}
	if !g.cfg.AllowMatch {
		w.Match = 0
	}
	if !g.cfg.AllowTau {
		w.Tau = 0
	}
	if d == 0 {
		return syntax.PNil
	}
	weights := []int{w.Nil, w.Out, w.In, w.Sum, w.Par, w.Res, w.Match, w.Tau}
	total := 0
	for _, x := range weights {
		total += x
	}
	if total <= 0 {
		return syntax.PNil
	}
	roll := g.rng.Intn(total)
	kind := 0
	for i, x := range weights {
		if roll < x {
			kind = i
			break
		}
		roll -= x
	}
	switch kind {
	case 0:
		return syntax.PNil
	case 1:
		return g.output(d, pool)
	case 2:
		return g.input(d, pool)
	case 3:
		return syntax.Choice(g.weightedTerm(d-1, pool), g.weightedTerm(d-1, pool))
	case 4:
		return syntax.Group(g.weightedTerm(d-1, pool), g.weightedTerm(d-1, pool))
	case 5:
		return g.restriction(d, pool)
	case 6:
		return syntax.If(g.pick(pool), g.pick(pool), g.weightedTerm(d-1, pool), g.weightedTerm(d-1, pool))
	default:
		return syntax.TauP(g.weightedTerm(d-1, pool))
	}
}

func (g *Gen) output(d int, pool []names.Name) syntax.Proc {
	k := g.arity()
	args := make([]names.Name, k)
	for i := range args {
		args[i] = g.pick(pool)
	}
	return syntax.Send(g.pick(pool), args, g.term(d-1, pool))
}

func (g *Gen) input(d int, pool []names.Name) syntax.Proc {
	k := g.arity()
	params := make([]names.Name, k)
	inner := pool
	for i := range params {
		params[i] = g.freshName()
		inner = append(inner[:len(inner):len(inner)], params[i])
	}
	return syntax.Recv(g.pick(pool), params, g.term(d-1, inner))
}

func (g *Gen) restriction(d int, pool []names.Name) syntax.Proc {
	x := g.freshName()
	inner := append(pool[:len(pool):len(pool)], x)
	return syntax.Restrict(g.term(d-1, inner), x)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}
