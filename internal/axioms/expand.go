package axioms

import (
	"bpi/internal/names"
	"bpi/internal/syntax"
)

// Expand applies the expansion axiom (Table 8) once to p‖q, where both
// operands are guarded sums of prefixes: prefixes under + and matches, as
// hnf produces them. It returns the equivalent guarded prefix-sum with the
// nine summand families of the table — joint inputs, output+reception (both
// orientations), output+discard, reception+discard, and the τ interleavings
// — whose continuations are composed with plain ‖. Summands whose guard no
// world satisfies are dropped (C4). Returns ok=false if an operand is not a
// guarded sum of prefixes.
//
// Arity caveat: the paper states the axiomatisation for the monadic
// calculus. In a polyadic setting the [x∉T] guard conflates "not listening
// on x" with "listening on x at a different arity" (a process in the latter
// state blocks a broadcast instead of ignoring it), so Expand is sound only
// when all prefixes on a channel share one arity — e.g. the uniform-arity
// fragment. The prover (Decide) does not use this rewrite and has no such
// restriction.
func Expand(p, q syntax.Proc) (syntax.Proc, bool) {
	ps, ok := gsummands(p, True{})
	if !ok {
		return nil, false
	}
	qs, ok := gsummands(q, True{})
	if !ok {
		return nil, false
	}
	return expand(ps, qs, p, q), true
}

// gsummand is a condition-guarded prefix summand φπ.p.
type gsummand struct {
	cond Cond
	pre  syntax.Pre
	cont syntax.Proc
}

// gsummands flattens a guarded sum of prefixes into guarded summands, each
// guarded by guard and the match branches above it.
func gsummands(p syntax.Proc, guard Cond) ([]gsummand, bool) {
	switch t := p.(type) {
	case syntax.Nil:
		return nil, true
	case syntax.Prefix:
		return []gsummand{{cond: guard, pre: t.Pre, cont: t.Cont}}, true
	case syntax.Sum:
		l, ok := gsummands(t.L, guard)
		if !ok {
			return nil, false
		}
		r, ok := gsummands(t.R, guard)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	case syntax.Match:
		l, ok := gsummands(t.Then, Conj(guard, Eq{t.X, t.Y}))
		if !ok {
			return nil, false
		}
		r, ok := gsummands(t.Else, Conj(guard, Neq(t.X, t.Y)))
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	default:
		return nil, false
	}
}

// rebuild turns guarded summands back into a term.
func rebuild(ss []gsummand) syntax.Proc {
	parts := make([]syntax.Proc, 0, len(ss))
	for _, s := range ss {
		parts = append(parts, CondProc(s.cond, syntax.Prefix{Pre: s.pre, Cont: s.cont}))
	}
	return syntax.Choice(parts...)
}

// expand is the expansion axiom (Table 8) over the guarded summands ps of p
// and qs of q. Each continuation of p's side is composed with one of q's by
// plain ‖, p's side on the left. The discard and τ families keep the sibling
// whole. A summand whose guard is unsatisfiable is dropped (C4);
// satisfiability is decided over the guard's own names, since a partition
// of those extends to any larger name set.
func expand(ps, qs []gsummand, p, q syntax.Proc) syntax.Proc {
	join := func(l, r syntax.Proc) syntax.Proc { return syntax.Par{L: l, R: r} }
	swap := func(l, r syntax.Proc) syntax.Proc { return syntax.Par{L: r, R: l} }
	out := jointInputs(ps, qs)
	// Families 2–5: outputs heard or discarded, both orientations.
	out = appendOutputs(out, ps, qs, q, join)
	out = appendOutputs(out, qs, ps, p, swap)
	// Families 6–7: inputs the sibling discards.
	out = appendInputs(out, ps, qs, q, join)
	out = appendInputs(out, qs, ps, p, swap)
	// Families 8–9: τ interleavings.
	out = appendTaus(out, ps, q, join)
	out = appendTaus(out, qs, p, swap)
	kept := out[:0]
	for _, s := range out {
		if Satisfiable(s.cond, nil) {
			kept = append(kept, s)
		}
	}
	return rebuild(kept)
}

// jointInputs is the first family: [x=y] x(v).(p'‖q') for every pair of
// inputs of equal arity; the equality guard covers the substitutions that
// fuse distinct channel names.
func jointInputs(ps, qs []gsummand) []gsummand {
	var out []gsummand
	for _, sp := range ps {
		pin, ok := sp.pre.(syntax.In)
		if !ok {
			continue
		}
		for _, sq := range qs {
			qin, ok := sq.pre.(syntax.In)
			if !ok || len(qin.Params) != len(pin.Params) {
				continue
			}
			avoid := syntax.FreeNames(sp.cont).AddAll(syntax.FreeNames(sq.cont)).
				AddSlice(pin.Params).AddSlice(qin.Params).Add(pin.Ch).Add(qin.Ch)
			params := make([]names.Name, len(pin.Params))
			for i := range params {
				params[i] = syntax.FreshVariant(pin.Params[i], avoid)
				avoid = avoid.Add(params[i])
			}
			cl := syntax.Instantiate(sp.cont, pin.Params, params)
			cr := syntax.Instantiate(sq.cont, qin.Params, params)
			out = append(out, gsummand{
				cond: Conj(sp.cond, sq.cond, Eq{pin.Ch, qin.Ch}),
				pre:  syntax.In{Ch: pin.Ch, Params: params},
				cont: syntax.Par{L: cl, R: cr},
			})
		}
	}
	return out
}

// appendOutputs adds, for each output of movers, the summands where the
// sibling receives ([x=y]-guarded) or discards it; join composes a mover's
// continuation with the sibling's.
func appendOutputs(out, movers, sibs []gsummand, sibWhole syntax.Proc,
	join func(m, s syntax.Proc) syntax.Proc) []gsummand {
	for _, mv := range movers {
		o, ok := mv.pre.(syntax.Out)
		if !ok {
			continue
		}
		for _, sb := range sibs {
			in, ok := sb.pre.(syntax.In)
			if !ok || len(in.Params) != len(o.Args) {
				continue
			}
			recv := syntax.Instantiate(sb.cont, in.Params, o.Args)
			out = append(out, gsummand{
				cond: Conj(mv.cond, sb.cond, Eq{o.Ch, in.Ch}),
				pre:  o,
				cont: join(mv.cont, recv),
			})
		}
		out = append(out, gsummand{
			cond: Conj(mv.cond, discarded(o.Ch, mv.cond, sibs)),
			pre:  o,
			cont: join(mv.cont, sibWhole),
		})
	}
	return out
}

// appendInputs adds the reception+discard summands, guarded by the sibling
// discarding the channel, with the mover's parameters renamed away from the
// sibling's free names.
func appendInputs(out, movers, sibs []gsummand, sibWhole syntax.Proc,
	join func(m, s syntax.Proc) syntax.Proc) []gsummand {
	sibFree := syntax.FreeNames(sibWhole)
	for _, mv := range movers {
		in, ok := mv.pre.(syntax.In)
		if !ok {
			continue
		}
		params, cont := in.Params, mv.cont
		if sibFree.ContainsAny(params) {
			avoid := sibFree.Clone().AddAll(syntax.FreeNames(cont)).AddSlice(params)
			ren := names.Subst{}
			np := make([]names.Name, len(params))
			for i, b := range params {
				if sibFree.Contains(b) {
					np[i] = syntax.FreshVariant(b, avoid)
					avoid = avoid.Add(np[i])
					ren[b] = np[i]
				} else {
					np[i] = b
				}
			}
			cont = syntax.Apply(cont, ren)
			params = np
		}
		out = append(out, gsummand{
			cond: Conj(mv.cond, discarded(in.Ch, mv.cond, sibs)),
			pre:  syntax.In{Ch: in.Ch, Params: params},
			cont: join(cont, sibWhole),
		})
	}
	return out
}

// appendTaus adds the τ interleavings of movers beside the whole sibling.
func appendTaus(out, movers []gsummand, sibWhole syntax.Proc,
	join func(m, s syntax.Proc) syntax.Proc) []gsummand {
	for _, mv := range movers {
		if _, ok := mv.pre.(syntax.Tau); ok {
			out = append(out, gsummand{cond: mv.cond, pre: syntax.Tau{}, cont: join(mv.cont, sibWhole)})
		}
	}
	return out
}

// discarded is the guard under which the sibling, whose summands are sibs,
// discards x, for a mover guarded by mc. Table 8 writes it [x ∉ T], the
// conjunction of x≠t over the sibling's listening channels T. That is exact
// when the sibling's inputs are unguarded, but an input φ t(ỹ) listens only
// where φ holds, and then the guard is the conjunction of ¬(φ ∧ x=t) over the
// inputs that can hear x under mc. [x ∉ T] is kept wherever the two agree
// under mc.
func discarded(x names.Name, mc Cond, sibs []gsummand) Cond {
	var chans []names.Name
	guarded := false
	for _, s := range sibs {
		if in, ok := s.pre.(syntax.In); ok {
			chans = append(chans, in.Ch)
			_, unguarded := s.cond.(True)
			guarded = guarded || !unguarded
		}
	}
	var parts []Cond
	for _, t := range names.NewSet(chans...).Sorted() {
		parts = append(parts, Neq(x, t))
	}
	notIn := Conj(parts...)
	if !guarded {
		return notIn
	}
	var exact []Cond
	for _, s := range sibs {
		in, ok := s.pre.(syntax.In)
		if !ok || !Satisfiable(Conj(mc, s.cond, Eq{x, in.Ch}), nil) {
			continue
		}
		if Satisfiable(Conj(mc, Not{s.cond}), nil) {
			exact = append(exact, Not{Conj(s.cond, Eq{x, in.Ch})})
		} else {
			exact = append(exact, Neq(x, in.Ch)) // mc implies φ
		}
	}
	// notIn implies exact, so they agree under mc unless exact ∧ ¬notIn can hold.
	if !Satisfiable(Conj(mc, Not{notIn}, Conj(exact...)), nil) {
		return notIn
	}
	return Conj(exact...)
}
