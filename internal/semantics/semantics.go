// Package semantics implements the structural operational semantics of the
// bπ-calculus: the discard relation of Table 2 and the early labelled
// transition system of Table 3 (Ene & Muntean 2001).
//
// Transitions are produced in *symbolic early* form: an input transition
// carries the input's binding parameters and an open continuation, and is
// instantiated on demand (Instantiate) with received names. This is exactly
// the early semantics — the instantiation points are the rule-(3) instances
// — presented so that the broadcast composition rules (12–14) can unify the
// receivers of one message without enumerating name tuples.
//
// # Reentrancy
//
// The package is purely functional and safe for concurrent use: a System is
// immutable after construction (Env is treated as read-only, per its
// contract), and every Steps/Discards call has its own stepCtx for the
// unfold budget; a Steps call takes its derivation buffer from a pool and
// gives it back emptied, so no two calls share one. Transitions never
// alias mutable internals of their source term — targets are fresh process
// values built by substitution. Callers (notably equiv.Store) rely on this
// to derive transitions for the same System from many goroutines at once.
package semantics

import (
	"fmt"

	"bpi/internal/actions"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

// Trans is a transition p --α--> target.
//
// For input labels (actions.In) the transition is symbolic: Act.Objs are
// binder parameters and Target is the open continuation; use Instantiate to
// obtain the ground transition for a given tuple of received names. τ and
// output transitions are ground.
type Trans struct {
	Act    actions.Act
	Target syntax.Proc
}

// String renders "--α--> p".
func (t Trans) String() string {
	return fmt.Sprintf("--%s--> %s", t.Act, syntax.String(t.Target))
}

// CanonOut renames the extruded names of one output transition against
// avoid: each bound name, in order, becomes syntax.FreshVariant("e") chosen
// against avoid ∪ fn(α) and the names picked before it. Two terms renamed
// against one avoid set extrude under the same names, so their bound-output
// labels align. The pair engine and the prover use this convention; the
// certificate verifier keeps its own copy of it (internal/cert).
func CanonOut(t Trans, avoid names.Set) Trans {
	if len(t.Act.Bound) == 0 {
		return t
	}
	av := avoid.Clone().AddAll(t.Act.FreeNames())
	ren := names.Subst{}
	for _, b := range t.Act.Bound {
		nb := syntax.FreshVariant("e", av)
		av = av.Add(nb)
		ren[b] = nb
	}
	return Trans{Act: t.Act.RenameAll(ren), Target: syntax.Apply(t.Target, ren)}
}

// System fixes the semantic context: a definitions environment and guard
// budgets. The zero value is usable (empty environment, default budget).
type System struct {
	// Env resolves process identifier calls.
	Env syntax.Env
	// MaxUnfold bounds the number of rec/call unfoldings performed while
	// computing the transitions of a single term, protecting against
	// unguarded recursion (0 means the default of 10000).
	MaxUnfold int
}

// NewSystem returns a System over the given definitions environment.
func NewSystem(env syntax.Env) *System { return &System{Env: env} }

// ErrUnfoldBudget is reported when computing one step required more
// recursion unfoldings than MaxUnfold — the symptom of an unguarded
// recursion.
type ErrUnfoldBudget struct{ Limit int }

func (e ErrUnfoldBudget) Error() string {
	return fmt.Sprintf("semantics: unfold budget %d exhausted (unguarded recursion?)", e.Limit)
}

type stepCtx struct {
	sys     *System
	unfolds int
	// buf holds the transitions derived so far: steps appends a term's
	// transitions to it and returns where they begin. high is the longest
	// buf has been, so that putScratch can clear every Proc it held.
	buf  []Trans
	high int
}

// cut drops buf's transitions from n on.
func (c *stepCtx) cut(n int) {
	c.high = max(c.high, len(c.buf))
	c.buf = c.buf[:n]
}

func (c *stepCtx) spendUnfold() error {
	limit := c.sys.MaxUnfold
	if limit == 0 {
		limit = 10000
	}
	c.unfolds++
	if c.unfolds > limit {
		return ErrUnfoldBudget{limit}
	}
	return nil
}

// Steps returns the symbolic transitions of p (rules 1–14 of Table 3),
// deduplicated up to alpha-equivalence of (label, target). The derivation
// runs in one pooled buffer; only the deduplicated list is allocated.
func (s *System) Steps(p syntax.Proc) ([]Trans, error) {
	sc := getScratch()
	ts, err := sc.derive(s, p)
	putScratch(sc)
	return ts, err
}

// Discards implements the discard relation of Table 2: p -a↛, "p ignores
// any broadcast on a".
func (s *System) Discards(p syntax.Proc, a names.Name) (bool, error) {
	ctx := &stepCtx{sys: s}
	return discards(p, a, ctx)
}

func discards(p syntax.Proc, a names.Name, ctx *stepCtx) (bool, error) {
	switch t := p.(type) {
	case syntax.Nil:
		return true, nil // rule (1)
	case syntax.Prefix:
		switch pre := t.Pre.(type) {
		case syntax.Tau:
			return true, nil // rule (2)
		case syntax.Out:
			return true, nil // rule (3)
		case syntax.In:
			return pre.Ch != a, nil // rule (4)
		}
		panic("semantics: unknown prefix")
	case syntax.Res:
		if t.X == a {
			return true, nil // rule (5), x = a case: the outer a is not the local x
		}
		return discards(t.Body, a, ctx) // rule (5)
	case syntax.Sum:
		l, err := discards(t.L, a, ctx)
		if err != nil || !l {
			return false, err
		}
		return discards(t.R, a, ctx) // rule (6)
	case syntax.Match:
		if t.X == t.Y {
			return discards(t.Then, a, ctx) // rule (7)
		}
		return discards(t.Else, a, ctx) // rule (8)
	case syntax.Par:
		l, err := discards(t.L, a, ctx)
		if err != nil || !l {
			return false, err
		}
		return discards(t.R, a, ctx) // rule (9)
	case syntax.Rec:
		if err := ctx.spendUnfold(); err != nil {
			return false, err
		}
		return discards(syntax.Unfold(t), a, ctx) // rule (10)
	case syntax.Call:
		if err := ctx.spendUnfold(); err != nil {
			return false, err
		}
		q, err := ctx.sys.Env.Expand(t)
		if err != nil {
			return false, err
		}
		return discards(q, a, ctx)
	default:
		panic("semantics: unknown process node")
	}
}

// steps appends p's transitions to ctx.buf and returns the index at which
// they begin; they run to the end of the buffer.
func steps(p syntax.Proc, ctx *stepCtx) (int, error) {
	switch t := p.(type) {
	case syntax.Nil:
		return len(ctx.buf), nil
	case syntax.Prefix:
		var tr Trans
		switch pre := t.Pre.(type) {
		case syntax.Tau: // rule (2)
			tr = Trans{actions.NewTau(), t.Cont}
		case syntax.Out: // rule (4)
			tr = Trans{actions.NewOut(pre.Ch, pre.Args), t.Cont}
		case syntax.In: // rule (3), symbolic early form
			tr = Trans{actions.NewIn(pre.Ch, pre.Params), t.Cont}
		default:
			panic("semantics: unknown prefix")
		}
		ctx.buf = append(ctx.buf, tr)
		return len(ctx.buf) - 1, nil
	case syntax.Sum: // rule (8): the operands' transitions, where they lie
		lo, err := steps(t.L, ctx)
		if err != nil {
			return 0, err
		}
		if _, err := steps(t.R, ctx); err != nil {
			return 0, err
		}
		return lo, nil
	case syntax.Match: // rules (9), (10)
		if t.X == t.Y {
			return steps(t.Then, ctx)
		}
		return steps(t.Else, ctx)
	case syntax.Rec: // rule (11)
		if err := ctx.spendUnfold(); err != nil {
			return 0, err
		}
		return steps(syntax.Unfold(t), ctx)
	case syntax.Call:
		if err := ctx.spendUnfold(); err != nil {
			return 0, err
		}
		q, err := ctx.sys.Env.Expand(t)
		if err != nil {
			return 0, err
		}
		return steps(q, ctx)
	case syntax.Res:
		return stepsRes(t, ctx)
	case syntax.Par:
		return stepsPar(t, ctx)
	default:
		panic("semantics: unknown process node")
	}
}

// collides reports whether x clashes with the binders of the label (bound
// output names or input parameters).
func collides(x names.Name, act actions.Act) bool {
	switch act.Kind {
	case actions.Out:
		for _, b := range act.Bound {
			if b == x {
				return true
			}
		}
	case actions.In:
		for _, b := range act.Objs {
			if b == x {
				return true
			}
		}
	}
	return false
}

// freePosition reports whether x occurs among the label's free objects
// (x ∈ x̃ \ ỹ for νỹ āx̃).
func freePosition(act actions.Act, x names.Name) bool {
	bound := act.BoundSet()
	for _, o := range act.Objs {
		if o == x && !bound.Contains(o) {
			return true
		}
	}
	return false
}

// renameLabelBinders alpha-renames the label's binders (output extrusions or
// input parameters) jointly in label and target so that they avoid the given
// set (plus everything already in sight).
func renameLabelBinders(act actions.Act, tgt syntax.Proc, avoidExtra names.Set) (actions.Act, syntax.Proc) {
	var binders []names.Name
	switch act.Kind {
	case actions.Out:
		binders = act.Bound
	case actions.In:
		binders = act.Objs
	default:
		return act, tgt
	}
	avoid := syntax.FreeNames(tgt).Union(avoidExtra).AddAll(act.Names())
	ren := names.Subst{}
	for _, b := range binders {
		if avoidExtra.Contains(b) {
			nb := syntax.FreshVariant(b, avoid)
			avoid = avoid.Add(nb)
			ren[b] = nb
		}
	}
	if ren.IsIdentity() {
		return act, tgt
	}
	return act.RenameAll(ren), syntax.Apply(tgt, ren)
}
