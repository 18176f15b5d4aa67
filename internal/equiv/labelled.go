package equiv

import (
	"sort"
	"strings"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

func stringOf(ti *termInfo) string { return syntax.String(ti.proc) }

// buildLabelled creates the obligations of Definition 8 (strong) or
// Definition 7 (weak) for the pair n:
//
//  1. τ moves matched by τ (or by =ε=> when weak);
//  2. (possibly bound) outputs matched on identical canonical labels;
//  3. receptions-or-discards a(c̃)? matched by receptions-or-discards,
//     for every channel either side listens on and every payload tuple over
//     the pair universe.
//
// When both sides are one term (p == q), clauses 2 and 3 derive each answer
// set and each set of moves once and use it for both sides: the second
// derivation would intern nothing new.
func (e *engine) buildLabelled(p, q *termInfo, b *built) error {
	avoid := freeUnion(p, q)

	// Clause 1: τ.
	if err := e.moveClause(p, q, kindTau, b); err != nil {
		return err
	}

	// Clause 2: outputs on identical canonical labels.
	if err := e.outputObligations(p, q, b, avoid); err != nil {
		return err
	}

	// Clause 3: receptions-or-discards.
	return e.reactionObligations(p, q, b, avoid)
}

// outputObligations adds, for every output move of each side, the
// candidates derived from matching outputs of the other side: first p's
// moves against q's answers, then q's against p's.
func (e *engine) outputObligations(p, q *termInfo, b *built, avoid names.Set) error {
	qAns, err := e.c.outputAnswers(q, avoid, e.sp.weak)
	if err != nil {
		return err
	}
	first := len(b.obs)
	err = e.c.store.eachOutput(p, avoid, func(o outTarget) error {
		b.add(obMove{side: sideLeft, kind: kindOut, label: o.label, mover: o.tgt}, qAns[o.label])
		return nil
	})
	if err != nil {
		return err
	}
	if p == q {
		for _, ob := range b.obs[first:] {
			ob.mv.side = sideRight
			b.add(ob.mv, ob.answers)
		}
		return nil
	}
	pAns, err := e.c.outputAnswers(p, avoid, e.sp.weak)
	if err != nil {
		return err
	}
	return e.c.store.eachOutput(q, avoid, func(o outTarget) error {
		b.add(obMove{side: sideRight, kind: kindOut, label: o.label, mover: o.tgt}, pAns[o.label])
		return nil
	})
}

// outputAnswers returns the answers to an output challenge against ti, per
// canonical label against avoid: ti's output targets, or when weak the
// states its weak outputs τ*·ā·τ* reach. Each target's τ-closure is taken
// before the next target is interned (see eachOutput).
func (c *Checker) outputAnswers(ti *termInfo, avoid names.Set, weak bool) (map[string][]*termInfo, error) {
	sources := []*termInfo{ti}
	if weak {
		cl, err := c.closure(ti, kindTau)
		if err != nil {
			return nil, err
		}
		sources = cl
	}
	answers := map[string][]*termInfo{}
	for _, src := range sources {
		err := c.store.eachOutput(src, avoid, func(o outTarget) error {
			if !weak {
				answers[o.label] = append(answers[o.label], o.tgt)
				return nil
			}
			finals, err := c.closure(o.tgt, kindTau)
			if err != nil {
				return err
			}
			answers[o.label] = append(answers[o.label], finals...)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return answers, nil
}

// reactionObligations adds the clause-3 obligations: for every channel a on
// which either side listens, and every payload c̃ over the pair universe
// (the free names avoid of the pair plus reservoir names), every reaction
// (reception or discard) of one side must be matched by a reaction of the
// other. The payloads are walked one at a time, the context checked at
// each, so a wide input cannot outlast the query's deadline.
func (e *engine) reactionObligations(p, q *termInfo, b *built, avoid names.Set) error {
	shapes := inputShapes(p)
	if p != q {
		for s := range inputShapes(q) {
			shapes[s] = true
		}
	}
	ordered := make([]shape, 0, len(shapes))
	for s := range shapes {
		ordered = append(ordered, s)
	}
	sortShapes(ordered)
	for _, s := range ordered {
		err := names.EachTuple(names.Universe(avoid, s.arity), s.arity, func(payload []names.Name) error {
			if err := e.ctx.Err(); err != nil {
				return ErrCanceled{err}
			}
			pr, err := e.reactTargets(p, s.ch, payload)
			if err != nil {
				return err
			}
			qr := pr
			if p != q {
				if qr, err = e.reactTargets(q, s.ch, payload); err != nil {
					return err
				}
			}
			// The moves to be matched are the strong one-step reactions:
			// the answers themselves when strong, derived again (all
			// intern hits) only when weak.
			pm, qm := pr, qr
			if e.sp.weak {
				if pm, err = e.c.store.reactions(p, s.ch, payload); err != nil {
					return err
				}
				qm = pm
				if p != q {
					if qm, err = e.c.store.reactions(q, s.ch, payload); err != nil {
						return err
					}
				}
			}
			b.clause(obMove{kind: kindReact, ch: s.ch, payload: payload}, pm, qm, qr, pr)
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// reactTargets returns the states that may answer a reaction move: strong
// reactions, or weak ones (=ε=> · a(c̃)? · =ε=>) in the weak case.
func (e *engine) reactTargets(ti *termInfo, ch names.Name, payload []names.Name) ([]*termInfo, error) {
	return e.c.derivatives(ti, e.sp.weak, func(s *termInfo) ([]*termInfo, error) {
		return e.c.store.reactions(s, ch, payload)
	})
}

// derivatives returns step(ti), the derivatives of ti under some action x,
// or when weak every state ti reaches by τ*·x·τ*, sorted by canonical key.
func (c *Checker) derivatives(ti *termInfo, weak bool, step func(*termInfo) ([]*termInfo, error)) ([]*termInfo, error) {
	if !weak {
		return step(ti)
	}
	pre, err := c.closure(ti, kindTau)
	if err != nil {
		return nil, err
	}
	seen := map[uint64]*termInfo{}
	for _, s := range pre {
		ds, err := step(s)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			post, err := c.closure(d, kindTau)
			if err != nil {
				return nil, err
			}
			for _, t := range post {
				seen[t.id] = t
			}
		}
	}
	out := make([]*termInfo, 0, len(seen))
	for _, t := range seen {
		out = append(out, t)
	}
	sortTerms(out)
	return out, nil
}

func sortShapes(ss []shape) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].ch != ss[j].ch {
			return ss[i].ch < ss[j].ch
		}
		return ss[i].arity < ss[j].arity
	})
}

func joinNames(ns []names.Name) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = string(n)
	}
	return strings.Join(parts, ",")
}
