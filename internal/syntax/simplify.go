package syntax

import (
	"slices"
	"sort"
	"strings"

	"bpi/internal/names"
)

// Simplify rewrites p with laws that preserve its strong labelled
// bisimilarity class, its one-step transition structure (up to duplicate
// transitions) and its discard relation:
//
//	p + nil = p, p + p = p, commutativity/associativity of +   (S1–S4)
//	p ‖ nil = p, commutativity/associativity of ‖              (P1 + expansion)
//	(x=x)p,q = p                                                (C5 family)
//	(x=y)p,q = q for distinct x,y that can never be identified  (see below)
//	νx p = p when x ∉ fn(p)                                     (R1)
//	νx νy p = νy νx p (ordered canonically)                     (R2)
//
// It is used to intern states during LTS exploration and equivalence
// checking, shrinking the state space without affecting any verdict.
//
// Match elimination soundness: (x=y)p,q with x ≠ y may only be rewritten to
// q when the inequality is stable under the *semantics*, i.e. neither name
// can later be instantiated: input parameters and rec parameters in scope
// can be filled with arbitrary received names, so matches mentioning them
// are kept. Names that are free in the whole term, or ν-bound, are never
// identified by the transition rules (extrusion keeps bound names fresh via
// alpha-conversion), so those matches are decided now — the rewrite mirrors
// SOS rules (9)/(10) and Table 2 rules (7)/(8) exactly, which is why both
// the transitions and the discards of the term are unchanged.
//
// CAUTION: stable-match elimination is NOT sound under substitution
// contexts — a later fusion σ with σ(x)=σ(y) would have taken the then
// branch. Every checker that closes over substitutions (~c / ≈c) therefore
// applies σ to the original term *before* any simplification; Simplify
// must never be applied to a term that will still be substituted into.
func Simplify(p Proc) Proc {
	return simplify(p, nil)
}

// simplify carries the set of instantiable binders currently in scope
// (input parameters and rec parameters).
func simplify(p Proc, inst names.Set) Proc {
	switch t := p.(type) {
	case Nil, Call:
		return p
	case Prefix:
		if in, ok := t.Pre.(In); ok {
			inner := extend(inst, in.Params)
			return Prefix{t.Pre, simplify(t.Cont, inner)}
		}
		return Prefix{t.Pre, simplify(t.Cont, inst)}
	case Sum:
		// Re-collect after simplifying: a summand may itself collapse to a
		// sum (e.g. a decided match), whose parts must join this level's
		// dedupe and ordering or a second pass would normalise further.
		var parts []Proc
		for _, q := range SumList(p) {
			parts = appendSum(parts, simplify(q, inst))
		}
		return Choice(sortByKey(parts, true)...)
	case Par:
		// Same re-flattening as Sum: a component collapsing to a composition
		// must not leave a nested Par that re-associates on the next pass.
		var parts []Proc
		for _, q := range ParList(p) {
			parts = appendPar(parts, simplify(q, inst))
		}
		return Group(sortByKey(parts, false)...)
	case Res:
		body := simplify(t.Body, inst)
		if !FreeNames(body).Contains(t.X) {
			return body
		}
		return sortRes(Res{t.X, body})
	case Match:
		if t.X == t.Y {
			return simplify(t.Then, inst)
		}
		if !inst.Contains(t.X) && !inst.Contains(t.Y) {
			return simplify(t.Else, inst)
		}
		return Match{t.X, t.Y, simplify(t.Then, inst), simplify(t.Else, inst)}
	case Rec:
		return p // unfolding (and thus simplification of unfoldings) is the semantics' job
	default:
		panic("syntax: unknown process node")
	}
}

// sortByKey drops the nil terms of ps and sorts the rest stably by Key,
// computing each key once; with dedupe it keeps only the first of each run
// of alpha-equal terms. It reuses ps's backing array.
func sortByKey(ps []Proc, dedupe bool) []Proc {
	type keyed struct {
		key string
		p   Proc
	}
	ks := make([]keyed, 0, len(ps))
	for _, p := range ps {
		if _, isNil := p.(Nil); !isNil {
			ks = append(ks, keyed{Key(p), p})
		}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := ps[:0]
	for i, k := range ks {
		if dedupe && i > 0 && k.key == ks[i-1].key {
			continue
		}
		out = append(out, k.p)
	}
	return out
}

// sortRes canonically orders a maximal block νx1 … νxn so that commuting
// restrictions (law R2 / Lemma 6(i)) yields one representative. Reordering
// is skipped when binder names repeat (shadowing would change capture).
func sortRes(r Res) Proc {
	var xs []Name
	var body Proc = r
	for {
		rr, ok := body.(Res)
		if !ok {
			break
		}
		xs = append(xs, rr.X)
		body = rr.Body
	}
	if len(xs) < 2 {
		return r
	}
	seen := map[Name]bool{}
	for _, x := range xs {
		if seen[x] {
			return r
		}
		seen[x] = true
	}
	orig := append([]Name(nil), xs...)
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i := range xs {
		if xs[i] != orig[i] {
			return Restrict(body, xs...)
		}
	}
	return r
}
