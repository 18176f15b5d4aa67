package semantics

import (
	"bytes"
	"slices"
	"sync"

	"bpi/internal/actions"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

// This file implements the restriction rules (5–7) and the broadcast
// composition rules (12–14) for the interpreted walker.
//
// Everything here follows the package's reentrancy contract: helpers receive
// all state as arguments (the derivation buffer in the call's own stepCtx)
// and build fresh transition targets, so parallel callers never observe
// shared mutation.

// pairUp rebuilds a parallel composition with the mover on its original
// side: Par{moved, other} when the mover was the left component.
func pairUp(moverIsLeft bool, moved, other syntax.Proc) syntax.Proc {
	if moverIsLeft {
		return syntax.Par{L: moved, R: other}
	}
	return syntax.Par{L: other, R: moved}
}

// stepsPar implements the broadcast composition rules (12), (13), (14) for
// pp.L | pp.R. The result is in derivation order — left τ, right τ, left
// outputs, right outputs, left inputs, right inputs — and Steps dedupes only
// the final top-level list. Every rule appends to the buffer after the
// operands' transitions, which it reads in place; the result then moves
// down over them.
func stepsPar(pp syntax.Par, ctx *stepCtx) (int, error) {
	lo, err := steps(pp.L, ctx)
	if err != nil {
		return 0, err
	}
	mid, err := steps(pp.R, ctx)
	if err != nil {
		return 0, err
	}
	end := len(ctx.buf)
	ls, rs := ctx.buf[lo:mid:mid], ctx.buf[mid:end:end]
	// τ moves: everything discards τ (rule (14) with sub(τ)=τ).
	for _, tl := range ls {
		if tl.Act.IsTau() {
			ctx.buf = append(ctx.buf, Trans{tl.Act, syntax.Par{L: tl.Target, R: pp.R}})
		}
	}
	for _, tr := range rs {
		if tr.Act.IsTau() {
			ctx.buf = append(ctx.buf, Trans{tr.Act, syntax.Par{L: pp.L, R: tr.Target}})
		}
	}
	// Outputs from the left, heard or discarded by the right (13)/(14),
	// then from the right (symmetric).
	if err := composeBroadcast(ctx, ls, pp.R, rs, true); err != nil {
		return 0, err
	}
	if err := composeBroadcast(ctx, rs, pp.L, ls, false); err != nil {
		return 0, err
	}
	// Inputs: both receive (12), or one receives and the other discards (14).
	if err := composeInput(ctx, ls, pp.R, rs, true); err != nil {
		return 0, err
	}
	if err := composeInput(ctx, rs, pp.L, ls, false); err != nil {
		return 0, err
	}
	ctx.cut(lo + copy(ctx.buf[lo:], ctx.buf[end:]))
	return lo, nil
}

// composeBroadcast appends to ctx.buf each output transition of the mover
// side combined with every way the sibling sib (with transitions sibTrans)
// can absorb the broadcast: receiving it (rule 13) or discarding the
// channel (rule 14).
func composeBroadcast(ctx *stepCtx, moverTrans []Trans, sib syntax.Proc, sibTrans []Trans, moverIsLeft bool) error {
	var sibFree names.Set
	for _, mv := range moverTrans {
		if !mv.Act.IsOutput() {
			continue
		}
		act, tgt := mv.Act, mv.Target
		// Rule 13 side condition bn(α) ∩ fn(p2) = ∅: alpha-rename the
		// extruded names (jointly in label and continuation) away from the
		// sibling's free names.
		if len(act.Bound) > 0 {
			if sibFree == nil {
				sibFree = syntax.FreeNames(sib)
			}
			act, tgt = renameLabelBinders(act, tgt, sibFree)
		}
		// Rule 13: the sibling receives the payload.
		for _, st := range sibTrans {
			if st.Act.IsInput() && st.Act.Subj == act.Subj && len(st.Act.Objs) == len(act.Objs) {
				recv := syntax.Instantiate(st.Target, st.Act.Objs, act.Objs)
				ctx.buf = append(ctx.buf, Trans{act, pairUp(moverIsLeft, tgt, recv)})
			}
		}
		// Rule 14: the sibling ignores the channel.
		disc, err := discards(sib, act.Subj, ctx)
		if err != nil {
			return err
		}
		if disc {
			ctx.buf = append(ctx.buf, Trans{act, pairUp(moverIsLeft, tgt, sib)})
		}
	}
	return nil
}

// composeInput appends to ctx.buf the composite input transitions in which
// the mover side's receptions participate: paired with a reception of the
// sibling on the same channel at the same arity (rule 12), or alone while
// the sibling discards (rule 14). To avoid emitting each rule-12
// combination twice, only the orientation in which the mover is the left
// component creates the paired transitions; the discard case is created
// for both orientations.
func composeInput(ctx *stepCtx, moverTrans []Trans, sib syntax.Proc, sibTrans []Trans, moverIsLeft bool) error {
	for _, mv := range moverTrans {
		if !mv.Act.IsInput() {
			continue
		}
		a, params, cont := mv.Act.Subj, mv.Act.Objs, mv.Target
		// Rule 12: the sibling receives the same message.
		if moverIsLeft {
			for _, st := range sibTrans {
				if !st.Act.IsInput() || st.Act.Subj != a || len(st.Act.Objs) != len(params) {
					continue
				}
				// Unify the two binder tuples on fresh parameters.
				avoid := syntax.FreeNames(cont).Union(syntax.FreeNames(st.Target)).
					AddSlice(params).AddSlice(st.Act.Objs).Add(a)
				fresh := make([]names.Name, len(params))
				for i := range params {
					fresh[i] = syntax.FreshVariant(params[i], avoid)
					avoid = avoid.Add(fresh[i])
				}
				l := syntax.Instantiate(cont, params, fresh)
				r := syntax.Instantiate(st.Target, st.Act.Objs, fresh)
				ctx.buf = append(ctx.buf, Trans{actions.NewIn(a, fresh), syntax.Par{L: l, R: r}})
			}
		}
		// Rule 14: the sibling discards the channel. The binder parameters
		// must not capture free names of the sibling.
		disc, err := discards(sib, a, ctx)
		if err != nil {
			return err
		}
		if disc {
			act, tgt := mv.Act, cont
			sibFree := syntax.FreeNames(sib)
			if sibFree.ContainsAny(params) {
				act, tgt = renameLabelBinders(act, tgt, sibFree)
			}
			ctx.buf = append(ctx.buf, Trans{act, pairUp(moverIsLeft, tgt, sib)})
		}
	}
	return nil
}

// stepsRes implements the restriction rules (5), (6), (7): it lifts the
// transitions of the body of νx p to the transitions of νx p itself. Each
// move of the body gives at most one, so they are rewritten in place.
func stepsRes(r syntax.Res, ctx *stepCtx) (int, error) {
	lo, err := steps(r.Body, ctx)
	if err != nil {
		return 0, err
	}
	x := r.X
	out := lo
	keep := func(t Trans) {
		ctx.buf[out] = t
		out++
	}
	for _, tr := range ctx.buf[lo:] {
		act, tgt := tr.Act, tr.Target
		// Textual collisions between the restricted name and the label's
		// binders (extruded names of outputs, parameters of inputs) mean
		// shadowing, not identity: alpha-rename the label's binders away.
		if collides(x, act) {
			act, tgt = renameLabelBinders(act, tgt, names.NewSet(x))
		}
		switch act.Kind {
		case actions.Tau: // rule (7)
			keep(Trans{act, syntax.Res{X: x, Body: tgt}})
		case actions.In:
			if act.Subj == x {
				continue // nobody outside can broadcast on the private channel
			}
			// rule (7): the received names are instantiated outside the
			// scope of x, so x stays restricted around the continuation.
			keep(Trans{act, syntax.Res{X: x, Body: tgt}})
		case actions.Out:
			if act.Subj == x {
				// rule (6): output on the private channel is internalised;
				// the extruded names stay bound around the continuation.
				tgt2 := syntax.Restrict(tgt, act.Bound...)
				keep(Trans{actions.NewTau(), syntax.Res{X: x, Body: tgt2}})
				continue
			}
			if freePosition(act, x) {
				// rule (5): scope extrusion; x becomes a bound name of the label.
				na := act
				na.Bound = append(append([]names.Name{}, act.Bound...), x)
				keep(Trans{na, tgt})
				continue
			}
			// rule (7): x not mentioned by the label.
			keep(Trans{act, syntax.Res{X: x, Body: tgt}})
		}
	}
	ctx.cut(out)
	return lo, nil
}

// Instantiate grounds a symbolic input transition with the received names:
// given p --a(x̃)--> cont (symbolic), it returns the early transition
// p --a(c̃)--> cont[c̃/x̃]. It panics if the transition is not an input or the
// arity differs (caller bug).
func Instantiate(t Trans, received []names.Name) (actions.Act, syntax.Proc) {
	if !t.Act.IsInput() {
		panic("semantics: Instantiate on non-input transition")
	}
	if len(received) != len(t.Act.Objs) {
		panic("semantics: Instantiate arity mismatch")
	}
	return actions.NewIn(t.Act.Subj, received), syntax.Instantiate(t.Target, t.Act.Objs, received)
}

// scratch is one Steps call's working memory: the derivation buffer, and
// dedupe's keys and permutation. scratches holds idle ones, emptied of
// every Proc they held. One that grew past maxPooledTrans transitions or
// maxPooledKeys key bytes is dropped instead, as syntax drops a key writer
// past 64 KiB, so that one huge term does not pin its buffers.
type scratch struct {
	trans []Trans
	used  int     // how many of trans's elements a derivation has written
	keys  []byte  // every transition's key, end to end
	offs  []int32 // transition i's key is keys[offs[i]:offs[i+1]]
	perm  []int32
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

const (
	maxPooledTrans = 1 << 10
	maxPooledKeys  = 64 << 10
)

func getScratch() *scratch { return scratches.Get().(*scratch) }

// putScratch clears every element of sc.trans that held a transition and
// returns sc to the pool.
func putScratch(sc *scratch) {
	if cap(sc.trans) > maxPooledTrans || cap(sc.keys) > maxPooledKeys {
		return
	}
	clear(sc.trans[:sc.used])
	sc.trans, sc.used = sc.trans[:0], 0
	scratches.Put(sc)
}

// derive returns p's transitions, derived in sc.trans and deduplicated.
func (sc *scratch) derive(s *System, p syntax.Proc) ([]Trans, error) {
	ctx := &stepCtx{sys: s, buf: sc.trans[:0]}
	_, err := steps(p, ctx)
	sc.trans, sc.used = ctx.buf, max(ctx.high, len(ctx.buf))
	if err != nil {
		return nil, err
	}
	return sc.dedupe(ctx.buf), nil
}

// dedupe returns ts without the transitions that duplicate an earlier one
// up to alpha-equivalence of the (label, target) pair, sorted by canonical
// transition key, in a new slice of exactly their number. It keeps the
// first occurrence, so the concrete representative depends on derivation
// order. Each key is written once, into sc.keys.
func (sc *scratch) dedupe(ts []Trans) []Trans {
	sc.keys, sc.offs, sc.perm = sc.keys[:0], append(sc.offs[:0], 0), sc.perm[:0]
	for i, t := range ts {
		sc.keys = appendTransKey(sc.keys, t)
		sc.offs = append(sc.offs, int32(len(sc.keys)))
		sc.perm = append(sc.perm, int32(i))
	}
	key := func(i int32) []byte { return sc.keys[sc.offs[i]:sc.offs[i+1]] }
	// The stable sort puts duplicates next to each other, first occurrence
	// first.
	slices.SortStableFunc(sc.perm, func(a, b int32) int { return bytes.Compare(key(a), key(b)) })
	kept := sc.perm[:0]
	for i, j := range sc.perm {
		if i == 0 || !bytes.Equal(key(j), key(kept[len(kept)-1])) {
			kept = append(kept, j)
		}
	}
	if len(kept) == 0 {
		return nil
	}
	out := make([]Trans, len(kept))
	for i, j := range kept {
		out[i] = ts[j]
	}
	return out
}

// TransKey returns a canonical string for a transition, treating the label's
// binders (input parameters, extruded output names) as alpha-convertible
// jointly with the target. Two transitions get the same key iff they are
// the same transition up to alpha.
func TransKey(t Trans) string {
	sc := getScratch()
	sc.keys = appendTransKey(sc.keys[:0], t)
	k := string(sc.keys)
	putScratch(sc)
	return k
}

// appendTransKey appends TransKey(t) to b: the canonical label, a space,
// and the key of the canonical target.
func appendTransKey(b []byte, t Trans) []byte {
	act, tgt := CanonTrans(t.Act, t.Target)
	return syntax.AppendKey(append(act.AppendTo(b), ' '), tgt)
}

// CanonTrans canonicalises the binders of a label jointly with its target:
// input parameters and extruded names are renamed to a deterministic
// sequence of fresh variants that avoid every free name of the label and
// target (so successive extrusions can never be conflated). The choice
// depends only on the alpha-class of (label, target), making it suitable for
// keying and deduplication.
func CanonTrans(act actions.Act, tgt syntax.Proc) (actions.Act, syntax.Proc) {
	var binders []names.Name
	switch act.Kind {
	case actions.In:
		binders = act.Objs
	case actions.Out:
		binders = act.Bound
	}
	if len(binders) == 0 {
		return act, tgt
	}
	// The avoid set must be alpha-invariant (independent of the current
	// binder names), so subtract the binders before choosing replacements.
	avoid := syntax.FreeNames(tgt).AddAll(act.Names())
	for _, b := range binders {
		avoid.Remove(b)
	}
	base := "v"
	if act.Kind == actions.Out {
		base = "e"
	}
	ren := names.Subst{}
	for _, b := range binders {
		nb := syntax.FreshVariant(names.Name(base), avoid)
		avoid = avoid.Add(nb)
		ren[b] = nb
	}
	return act.RenameAll(ren), syntax.Apply(tgt, ren)
}
