package syntax

import (
	"bytes"
	"slices"
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
	q, _ := simplify(p, nil)
	return q
}

// simplify returns p simplified and whether that changed it. A subterm
// that is already simplified comes back as it is rather than rebuilt, so
// simplifying a simplified term builds no node, and a changed term shares
// every unchanged operand with p. Sharing is safe because Procs are
// immutable. "Unchanged" is strict: the result must be Equal to p, so a
// reordered, deduplicated, dropped or re-associated operand counts as a
// change.
//
// inst is the stack of instantiable binders in scope (input parameters
// and rec parameters), innermost last. A callee pushes onto it by append,
// which may write past len(inst) into the caller's backing array; the walk
// is depth-first and nobody reads past their own length, so that is safe.
func simplify(p Proc, inst []Name) (Proc, bool) {
	switch t := p.(type) {
	case Nil, Call:
		return p, false
	case Prefix:
		inner := inst
		if in, ok := t.Pre.(In); ok {
			inner = append(inst, in.Params...)
		}
		cont, changed := simplify(t.Cont, inner)
		if !changed {
			return p, false
		}
		return Prefix{t.Pre, cont}, true
	case Sum:
		return simplifyOperands(p, inst, true)
	case Par:
		return simplifyOperands(p, inst, false)
	case Res:
		body, changed := simplify(t.Body, inst)
		if !FreeNames(body).Contains(t.X) {
			return body, true
		}
		if changed {
			t.Body = body
		}
		if q, ok := sortRes(t); ok {
			return q, true
		}
		if !changed {
			return p, false
		}
		return t, true
	case Match:
		if t.X == t.Y {
			q, _ := simplify(t.Then, inst)
			return q, true
		}
		if !slices.Contains(inst, t.X) && !slices.Contains(inst, t.Y) {
			q, _ := simplify(t.Else, inst)
			return q, true
		}
		then, c1 := simplify(t.Then, inst)
		els, c2 := simplify(t.Else, inst)
		if !c1 && !c2 {
			return p, false
		}
		return Match{t.X, t.Y, then, els}, true
	case Rec:
		return p, false // unfolding (and thus simplification of unfoldings) is the semantics' job
	default:
		panic("syntax: unknown process node")
	}
}

// simplifyOperands simplifies p, a sum (sum true) or a composition: it
// simplifies each operand, flattens the result (an operand may itself
// collapse to a sum or composition, whose parts must join this level's
// dedupe and ordering or a second pass would normalise further), drops the
// nil operands, sorts the rest by Key and, for a sum, keeps the first of
// each run of alpha-equal operands. p is unchanged when its spine already
// nests to the right, as Choice and Group build it, and its operands are
// simplified, not nil, and in key order without repeats in a sum.
func simplifyOperands(p Proc, inst []Name, sum bool) (Proc, bool) {
	var stack [8]Proc
	ops := appendOperands(stack[:0], p, sum)
	changed := !nestsRight(p, sum)
	for i, q := range ops {
		s, c := simplify(q, inst)
		_, isNil := s.(Nil)
		ops[i], changed = s, changed || c || isNil
	}
	if changed {
		parts := make([]Proc, 0, len(ops))
		for _, q := range ops {
			if _, isNil := q.(Nil); !isNil {
				parts = appendOperands(parts, q, sum)
			}
		}
		ops = parts
	}
	ops, moved := sortByKey(ops, sum)
	switch {
	case !changed && !moved:
		return p, false
	case sum:
		return Choice(ops...), true
	default:
		return Group(ops...), true
	}
}

// appendOperands appends the operands of p, a sum (sum true) or a
// composition, to dst.
func appendOperands(dst []Proc, p Proc, sum bool) []Proc {
	if sum {
		return appendSum(dst, p)
	}
	return appendPar(dst, p)
}

// nestsRight reports whether no left operand on the spine of p, a sum
// (sum true) or a composition, is itself a sum or composition respectively.
func nestsRight(p Proc, sum bool) bool {
	for l, r, ok := operands(p, sum); ok; l, r, ok = operands(r, sum) {
		if _, _, nested := operands(l, sum); nested {
			return false
		}
	}
	return true
}

// operands splits p when it is a Sum (sum true) or a Par (sum false).
func operands(p Proc, sum bool) (l, r Proc, ok bool) {
	if sum {
		s, ok := p.(Sum)
		return s.L, s.R, ok
	}
	c, ok := p.(Par)
	return c.L, c.R, ok
}

// sortByKey sorts ps stably by Key, in place, and with dedupe keeps only
// the first of each run of alpha-equal terms; it reports whether that
// moved or dropped a term. It writes each key once, all into one pooled
// buffer, and allocates only to sort or for more than 16 terms.
func sortByKey(ps []Proc, dedupe bool) ([]Proc, bool) {
	w := getKeyWriter()
	defer putKeyWriter(w)
	// ends[i] is where ps[i]'s key ends in w.b; the keys are views of w.b
	// and must not outlive this call.
	var stack [16]int
	ends := stack[:0]
	for _, p := range ps {
		w.key(p)
		ends = append(ends, len(w.b))
	}
	key := func(i int) []byte {
		if i == 0 {
			return w.b[:ends[0]]
		}
		return w.b[ends[i-1]:ends[i]]
	}
	ordered := true
	for i := 1; i < len(ps) && ordered; i++ {
		c := bytes.Compare(key(i-1), key(i))
		ordered = c < 0 || c == 0 && !dedupe
	}
	if ordered {
		return ps, false
	}
	type keyed struct {
		key []byte
		p   Proc
	}
	ks := make([]keyed, len(ps))
	for i, p := range ps {
		ks[i] = keyed{key(i), p}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return bytes.Compare(a.key, b.key) })
	out := ps[:0]
	for i, k := range ks {
		if dedupe && i > 0 && bytes.Equal(k.key, ks[i-1].key) {
			continue
		}
		out = append(out, k.p)
	}
	return out, true
}

// sortRes orders the maximal block νx1 … νxn at the top of r canonically,
// so that commuting restrictions (law R2 / Lemma 6(i)) yields one
// representative. It returns false when r is in that order already, or
// when binder names repeat (shadowing would change capture).
func sortRes(r Res) (Proc, bool) {
	n, sorted := 1, true
	prev, body := r.X, r.Body
	for rr, ok := body.(Res); ok; rr, ok = body.(Res) {
		sorted = sorted && prev < rr.X
		prev, body, n = rr.X, rr.Body, n+1
	}
	if sorted {
		return nil, false
	}
	xs := make([]Name, 0, n)
	for rr, ok := r, true; ok; rr, ok = rr.Body.(Res) {
		xs = append(xs, rr.X)
	}
	slices.Sort(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i] == xs[i-1] {
			return nil, false
		}
	}
	return Restrict(body, xs...), true
}
