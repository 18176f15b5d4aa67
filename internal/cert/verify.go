package cert

import (
	"errors"
	"fmt"
	"slices"

	"bpi/internal/names"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Verifier re-checks certificates against internal/semantics alone. The zero
// value works; Sys supplies process definitions when the certified terms use
// constants.
type Verifier struct {
	Sys *semantics.System
	// MaxClosure bounds each τ*/(τ∪output)* closure (default 8192 states).
	MaxClosure int
	// MaxWork bounds the total verification work — term internings, listed
	// pairs, relation probes and strategy nodes, and the payload tuples and
	// fusions walked (default 2,000,000).
	MaxWork int
}

// Verify checks c with a default Verifier.
func Verify(c *Certificate) error { return (&Verifier{}).Verify(c) }

// Verify replays the certificate's evidence. A nil error means the verdict
// (Related, for Relation on P and Q, Weak or strong) is established.
func (v *Verifier) Verify(c *Certificate) error {
	if c == nil {
		return errors.New("cert: nil certificate")
	}
	if c.Version != 1 && c.Version != Version {
		return fmt.Errorf("cert: unsupported certificate version %d (want 1 or %d)", c.Version, Version)
	}
	sys := v.Sys
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	closure := v.MaxClosure
	if closure <= 0 {
		closure = 8192
	}
	work := v.MaxWork
	if work <= 0 {
		work = 2_000_000
	}
	ck := &checker{s: &vsys{sys: sys, byKey: map[string]*vterm{}, closure: closure, maxWork: work}}
	switch c.Relation {
	case RelLabelled, RelBarbed, RelStep, RelOneStep:
		return ck.verifyPairRelation(c)
	case RelCongruence:
		return ck.verifyCongruence(c)
	case RelAxioms:
		return ck.verifyAxioms(c)
	default:
		return fmt.Errorf("cert: unknown relation %q", c.Relation)
	}
}

type checker struct {
	s *vsys
}

// ---- the games -------------------------------------------------------------

// challenge is one move an attacker may play: a τ ("tau"), an output under
// its canonical label ("out"), a reception-or-discard ("react") or strict
// reception ("in") of the ground broadcast ch(payload), or an autonomous
// step ("step").
type challenge struct {
	kind    string
	label   string
	ch      names.Name
	payload []names.Name
}

// challengeKinds lists the challenges of each game in the order a pair's
// walk plays them: labelled (Definitions 7/8), barbed (3) and step (5)
// bisimilarity, and the strict root of one-step bisimilarity (11/15),
// below which the game is labelled. Barbed and step add the barb clause,
// the one-step root the discard clause.
var challengeKinds = map[string][]string{
	RelLabelled: {"tau", "out", "react"},
	RelBarbed:   {"tau"},
	RelStep:     {"step"},
	RelOneStep:  {"tau", "out", "in"},
}

var sides = [2]string{"left", "right"}

// bySide orients the left and right members of a pair for an attack by
// side: the attacker's first, the defender's second.
func bySide(side string, l, r *vterm) (att, def *vterm) {
	if side == "right" {
		return r, l
	}
	return l, r
}

// eachChallenge calls f on every challenge of mode's game that p or q can
// play against the other: an output label once however many outputs carry
// it, and a reception on each input shape of either side for each payload
// over the pair's instantiation universe. avoid is fn(p) ∪ fn(q).
func (ck *checker) eachChallenge(mode string, p, q *vterm, avoid names.Set, f func(challenge) error) error {
	for _, kind := range challengeKinds[mode] {
		var err error
		switch kind {
		case "out":
			err = ck.eachLabel(p, q, avoid, f)
		case "react", "in":
			err = ck.eachReception(kind, p, q, avoid, f)
		default:
			err = f(challenge{kind: kind})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) eachLabel(p, q *vterm, avoid names.Set, f func(challenge) error) error {
	po, err := ck.s.outputs(p, avoid)
	if err != nil {
		return err
	}
	qo, err := ck.s.outputs(q, avoid)
	if err != nil {
		return err
	}
	for j, o := range po {
		if !hasLabel(po[:j], o.label) {
			if err := f(challenge{kind: "out", label: o.label}); err != nil {
				return err
			}
		}
	}
	for j, o := range qo {
		if !hasLabel(po, o.label) && !hasLabel(qo[:j], o.label) {
			if err := f(challenge{kind: "out", label: o.label}); err != nil {
				return err
			}
		}
	}
	return nil
}

func hasLabel(os []vout, label string) bool {
	for _, o := range os {
		if o.label == label {
			return true
		}
	}
	return false
}

// eachReception merges the sorted input shapes of p and q and walks each
// shape's payloads.
func (ck *checker) eachReception(kind string, p, q *vterm, avoid names.Set, f func(challenge) error) error {
	ps, qs := inputShapes(p), inputShapes(q)
	for len(ps) > 0 || len(qs) > 0 {
		var sh vshape
		switch {
		case len(qs) == 0 || len(ps) > 0 && ps[0].less(qs[0]):
			sh, ps = ps[0], ps[1:]
		case len(ps) == 0 || qs[0].less(ps[0]):
			sh, qs = qs[0], qs[1:]
		default:
			sh, ps, qs = ps[0], ps[1:], qs[1:]
		}
		err := ck.s.eachTuple(pairUniverse(avoid, sh.arity), sh.arity, func(payload []names.Name) error {
			return f(challenge{kind: kind, ch: sh.ch, payload: payload})
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// derive re-derives challenge c of mode's game on the attacker att and the
// defender def: the attacker's c-moves, and the defender's answers — its
// own c-moves or, when weak, its τ*·c·τ* moves. A weak τ or step answer may
// stay put (τ*, (τ∪output)*), except at the one-step root, where a τ is
// answered by τ·τ*: staying put would make τ.p ≈+ p, which + contexts
// distinguish. No answer is derived when the attacker has no c-move.
func (ck *checker) derive(mode string, weak bool, att, def *vterm, avoid names.Set, c challenge) (movers, answers []*vterm, err error) {
	if movers, err = ck.s.moves(att, c, avoid); err != nil || len(movers) == 0 {
		return movers, nil, err
	}
	switch {
	case !weak:
		answers, err = ck.s.moves(def, c, avoid)
	case c.kind == "step":
		answers, err = ck.s.closureOf(def, true)
	case c.kind == "tau" && mode != RelOneStep:
		answers, err = ck.s.closureOf(def, false)
	default:
		answers, err = ck.s.weakVia(def, c, avoid)
	}
	return movers, answers, err
}

// moves returns t's strong c-moves, each derivative once, in the order of
// its first transition; avoid is the pair's free names, against which
// extruded names are canonicalised.
func (s *vsys) moves(t *vterm, c challenge, avoid names.Set) ([]*vterm, error) {
	switch c.kind {
	case "tau":
		return s.succ(t, false)
	case "step":
		return s.succ(t, true)
	case "react":
		return s.reactions(t, c.ch, c.payload)
	case "in":
		return s.inputDerivs(t, c.ch, c.payload)
	case "out":
		outs, err := s.outputs(t, avoid)
		if err != nil {
			return nil, err
		}
		var to []*vterm
		for _, o := range outs {
			if o.label == c.label && !slices.Contains(to, o.to) {
				to = append(to, o.to)
			}
		}
		return to, nil
	}
	return nil, fmt.Errorf("cert: unknown challenge kind %q", c.kind)
}

// ---- positive relations ----------------------------------------------------

// relTable is a loaded positive relation: the interned terms and the pair
// set, keyed on interned terms.
type relTable struct {
	terms  []*vterm
	pairs  [][2]int
	member map[[2]*vterm]bool // oriented as listed
}

// loadRelation parses a positive certificate's relation. An empty relation is
// legal — a one-step certificate over challenge-free terms embeds one — and
// simply fails any later membership check.
func (ck *checker) loadRelation(c *Certificate) (*relTable, error) {
	rt := &relTable{pairs: c.Pairs, terms: make([]*vterm, len(c.Terms)),
		member: make(map[[2]*vterm]bool, len(c.Pairs))}
	for i, src := range c.Terms {
		t, err := ck.s.parse(src)
		if err != nil {
			return nil, err
		}
		rt.terms[i] = t
	}
	for i, pr := range c.Pairs {
		if pr[0] < 0 || pr[0] >= len(rt.terms) || pr[1] < 0 || pr[1] >= len(rt.terms) {
			return nil, fmt.Errorf("cert: pair %d indices out of range", i)
		}
		rt.member[[2]*vterm{rt.terms[pr[0]], rt.terms[pr[1]]}] = true
	}
	return rt, nil
}

// has reports membership of w in the relation up to swap: if every listed
// pair passes the closure check, R ∪ R⁻¹ is a bisimulation, so either
// orientation is sound evidence.
func (rt *relTable) has(w [2]*vterm) bool {
	return rt.member[w] || rt.member[[2]*vterm{w[1], w[0]}]
}

// answered reports whether some answer pairs with the attacker's move m in
// the relation, charging one unit of work per probe, so a relation that
// makes every probe miss stays within MaxWork.
func (ck *checker) answered(rt *relTable, m *vterm, answers []*vterm) (bool, error) {
	for _, a := range answers {
		if err := ck.s.work(1); err != nil {
			return false, err
		}
		if rt.has([2]*vterm{m, a}) {
			return true, nil
		}
	}
	return false, nil
}

// checkClosure verifies that every listed pair discharges every challenge of
// the relation's definition — the relation is a (weak) bisimulation.
func (ck *checker) checkClosure(rt *relTable, mode string, weak bool) error {
	for i, pr := range rt.pairs {
		if err := ck.s.work(1); err != nil {
			return err
		}
		p, q := rt.terms[pr[0]], rt.terms[pr[1]]
		if mode == RelBarbed || mode == RelStep {
			if err := ck.checkBarbs(i, p, q, weak, mode == RelStep); err != nil {
				return err
			}
		}
		if err := ck.checkPair(rt, i, mode, weak, p, q); err != nil {
			return err
		}
	}
	return nil
}

// checkPair checks that every challenge of mode's game on (p, q), listed
// pair i or the one-step root when i < 0, is answered in the relation:
// each of the attacker's moves has a derived answer that pairs with it in
// rt.
func (ck *checker) checkPair(rt *relTable, i int, mode string, weak bool, p, q *vterm) error {
	avoid := freeUnion(p, q)
	return ck.eachChallenge(mode, p, q, avoid, func(c challenge) error {
		for _, side := range sides {
			att, def := bySide(side, p, q)
			movers, answers, err := ck.derive(mode, weak, att, def, avoid, c)
			if err != nil {
				return err
			}
			for _, m := range movers {
				ok, err := ck.answered(rt, m, answers)
				if err != nil {
					return err
				}
				if !ok {
					return fmt.Errorf("cert: %s: unanswered %s %s challenge of %s side (to %s)",
						where(i), c.kind, c.label+string(c.ch), side, syntax.String(m.proc))
				}
			}
		}
		return nil
	})
}

// where names listed pair i, or the one-step root when i < 0.
func where(i int) string {
	if i < 0 {
		return "root"
	}
	return fmt.Sprintf("pair %d", i)
}

// checkBarbs verifies the barb clause of barbed (τ* answers) or step
// ((τ∪output)* answers) bisimilarity on pair i: each strong barb of one
// side is a barb of the other, a weak one when weak.
func (ck *checker) checkBarbs(i int, p, q *vterm, weak, auto bool) error {
	for _, side := range sides {
		own, other := bySide(side, p, q)
		for _, a := range strongBarbs(own) {
			ok, err := ck.s.hasBarb(other, a, weak, auto)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("cert: pair %d: the %s side's barb on %s is unmatched", i, side, a)
			}
		}
	}
	return nil
}

// ---- pair-relation certificates -------------------------------------------

// verifyPairRelation checks a labelled, barbed, step or one-step
// certificate.
func (ck *checker) verifyPairRelation(c *Certificate) error {
	p, err := ck.s.parse(c.P)
	if err != nil {
		return err
	}
	q, err := ck.s.parse(c.Q)
	if err != nil {
		return err
	}
	if !c.Related {
		return ck.verifyStrategy(c, p, q, c.Relation)
	}
	rt, err := ck.loadRelation(c)
	if err != nil {
		return err
	}
	if c.Relation == RelOneStep {
		return ck.checkOneStepRoot(c, rt, p, q)
	}
	if !rt.has([2]*vterm{p, q}) {
		return fmt.Errorf("cert: root pair (%s, %s) is not in the relation", c.P, c.Q)
	}
	return ck.checkClosure(rt, c.Relation, c.Weak)
}

// ---- distinguishing strategies --------------------------------------------

// verifyStrategy replays a negative certificate: Nodes[0] must attack the
// root pair, and every node's challenge must be re-derivable with every
// defender answer refuted by a child (well-foundedly: cycles are rejected,
// as a cyclic "refutation" of a greatest-fixpoint property proves nothing).
func (ck *checker) verifyStrategy(c *Certificate, p, q *vterm, mode string) error {
	if len(c.Nodes) == 0 {
		return errors.New("cert: negative certificate has no strategy")
	}
	rp, err := ck.s.parse(c.Nodes[0].P)
	if err != nil {
		return err
	}
	rq, err := ck.s.parse(c.Nodes[0].Q)
	if err != nil {
		return err
	}
	if !unorderedPairEqual(rp, rq, p, q) {
		return fmt.Errorf("cert: strategy root attacks (%s, %s), not the certified pair",
			c.Nodes[0].P, c.Nodes[0].Q)
	}
	state := make([]int, len(c.Nodes))
	return ck.checkNode(c, 0, mode, state)
}

// unorderedPairEqual reports {a1, a2} = {b1, b2}: all the paper's relations
// are symmetric, so a strategy may attack the pair in either orientation.
func unorderedPairEqual(a1, a2, b1, b2 *vterm) bool {
	return (a1 == b1 && a2 == b2) || (a1 == b2 && a2 == b1)
}

const (
	nodeInProgress = 1
	nodeDone       = 2
)

func (ck *checker) checkNode(c *Certificate, idx int, mode string, state []int) error {
	if idx < 0 || idx >= len(c.Nodes) {
		return fmt.Errorf("cert: strategy node index %d out of range", idx)
	}
	switch state[idx] {
	case nodeDone:
		return nil
	case nodeInProgress:
		return fmt.Errorf("cert: cyclic strategy through node %d", idx)
	}
	state[idx] = nodeInProgress
	if err := ck.checkNode1(c, idx, mode, state); err != nil {
		return err
	}
	state[idx] = nodeDone
	return nil
}

func (ck *checker) checkNode1(c *Certificate, idx int, mode string, state []int) error {
	if err := ck.s.work(1); err != nil {
		return err
	}
	n := c.Nodes[idx]
	p, err := ck.s.parse(n.P)
	if err != nil {
		return err
	}
	q, err := ck.s.parse(n.Q)
	if err != nil {
		return err
	}
	if !slices.Contains(sides[:], n.Side) {
		return fmt.Errorf("cert: node %d: bad side %q", idx, n.Side)
	}
	att, def := bySide(n.Side, p, q)
	childMode := mode
	if mode == RelOneStep {
		childMode = RelLabelled
	}

	switch {
	case n.Kind == "barb" && (mode == RelBarbed || mode == RelStep):
		if len(n.Replies) > 0 {
			return fmt.Errorf("cert: node %d: barb leaf has replies", idx)
		}
		a := names.Name(n.Label)
		if !slices.Contains(strongBarbs(att), a) {
			return fmt.Errorf("cert: node %d: %s side has no barb on %s", idx, n.Side, a)
		}
		ok, err := ck.s.hasBarb(def, a, c.Weak, mode == RelStep)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("cert: node %d: the defender also has a barb on %s", idx, a)
		}
		return nil

	case n.Kind == "discard" && mode == RelOneStep:
		ch := names.Name(n.Ch)
		da, err := ck.s.discardsOn(att, ch)
		if err != nil {
			return err
		}
		if !da {
			return fmt.Errorf("cert: node %d: %s side does not discard %s", idx, n.Side, ch)
		}
		answers, err := ck.s.discardAnswers(def, ch, c.Weak)
		if err != nil {
			return err
		}
		if !c.Weak {
			if len(n.Replies) > 0 {
				return fmt.Errorf("cert: node %d: strong discard leaf has replies", idx)
			}
			if len(answers) > 0 {
				return fmt.Errorf("cert: node %d: both sides discard %s", idx, ch)
			}
			return nil
		}
		// Weak (clause 4 of Definition 15): the discarder stays put, and
		// every answer is refuted against it at the labelled level.
		return ck.checkReplies(c, idx, n, att, answers, childMode, state)

	case slices.Contains(challengeKinds[mode], n.Kind):
		ch := challenge{kind: n.Kind, label: n.Label, ch: names.Name(n.Ch), payload: toNames(n.Payload)}
		movers, answers, err := ck.derive(mode, c.Weak, att, def, freeUnion(p, q), ch)
		if err != nil {
			return err
		}
		to, err := ck.s.parse(n.To)
		if err != nil {
			return err
		}
		if !slices.Contains(movers, to) {
			return fmt.Errorf("cert: node %d: %s is not a derivable %s move of the %s side",
				idx, n.To, n.Kind, n.Side)
		}
		return ck.checkReplies(c, idx, n, to, answers, childMode, state)

	default:
		return fmt.Errorf("cert: node %d: kind %q is not valid for a %s strategy", idx, n.Kind, mode)
	}
}

// checkReplies validates an attack node whose attacker moved to `to`: every
// re-derived defender answer must be refuted by a child node on the right
// successor pair. A node with no replies claims the answer set is empty;
// extra replies (answers the engine saw but the verifier does not
// re-derive) cannot arise, and unmatched ones are ignored.
func (ck *checker) checkReplies(c *Certificate, idx int, n Strategy,
	to *vterm, answers []*vterm, childMode string, state []int) error {
	replies := make(map[*vterm]Reply, len(n.Replies))
	for _, r := range n.Replies {
		rt, err := ck.s.parse(r.To)
		if err != nil {
			return err
		}
		if _, dup := replies[rt]; !dup {
			replies[rt] = r
		}
	}
	for _, ans := range answers {
		r, ok := replies[ans]
		if !ok {
			return fmt.Errorf("cert: node %d: defender answer %s is unrefuted",
				idx, syntax.String(ans.proc))
		}
		if r.Next < 0 || r.Next >= len(c.Nodes) {
			return fmt.Errorf("cert: node %d: reply index %d out of range", idx, r.Next)
		}
		child := c.Nodes[r.Next]
		cp, err := ck.s.parse(child.P)
		if err != nil {
			return err
		}
		cq, err := ck.s.parse(child.Q)
		if err != nil {
			return err
		}
		if wl, wr := bySide(n.Side, to, ans); !unorderedPairEqual(cp, cq, wl, wr) {
			return fmt.Errorf("cert: node %d: reply node %d attacks (%s, %s), not the successor pair",
				idx, r.Next, child.P, child.Q)
		}
		if err := ck.checkNode(c, r.Next, childMode, state); err != nil {
			return err
		}
	}
	return nil
}

// ---- one-step certificates -------------------------------------------------

// checkOneStepRoot checks a positive one-step certificate on its root pair
// (p, q), which need not be in the embedded relation.
func (ck *checker) checkOneStepRoot(c *Certificate, rt *relTable, p, q *vterm) error {
	// The embedded relation must be a labelled bisimulation…
	if err := ck.checkClosure(rt, RelLabelled, c.Weak); err != nil {
		return err
	}
	// …and the root pair's discards and strict moves must land in it.
	if err := ck.checkDiscards(c.Weak, rt, p, q); err != nil {
		return err
	}
	return ck.checkPair(rt, -1, RelOneStep, c.Weak, p, q)
}

// checkDiscards checks the root's discard clause: a side that discards a
// free name is answered by the other — strongly by discarding it too,
// weakly by a τ*-derivative of the other side that discards it and pairs
// with the discarder in the embedded relation.
func (ck *checker) checkDiscards(weak bool, rt *relTable, p, q *vterm) error {
	for _, a := range freeUnion(p, q).Sorted() {
		for _, side := range sides {
			att, def := bySide(side, p, q)
			da, err := ck.s.discardsOn(att, a)
			if err != nil {
				return err
			}
			if !da {
				continue
			}
			answers, err := ck.s.discardAnswers(def, a, weak)
			if err != nil {
				return err
			}
			if !weak {
				if len(answers) == 0 {
					return fmt.Errorf("cert: discard sets differ on %s", a)
				}
				continue
			}
			ok, err := ck.answered(rt, att, answers)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("cert: the %s side's discard of %s is unanswered in the embedded relation", side, a)
			}
		}
	}
	return nil
}

// ---- congruence certificates -----------------------------------------------

// verifyCongruence substitutes into the parsed P and Q as printed, before
// interning: Simplify drops matches on distinct free names that a fusion
// would fire, so it must never run on a term still to be substituted into.
func (ck *checker) verifyCongruence(c *Certificate) error {
	p, err := parseTerm(c.P)
	if err != nil {
		return err
	}
	q, err := parseTerm(c.Q)
	if err != nil {
		return err
	}
	if !c.Related {
		// Any single distinguishing substitution refutes the congruence (it
		// quantifies over all substitutions); verify the embedded one-step
		// strategy on the specialised pair.
		sub := names.Subst{}
		for k, v := range c.Sigma {
			sub[names.Name(k)] = names.Name(v)
		}
		ps, err := ck.s.intern(syntax.Apply(p, sub))
		if err != nil {
			return err
		}
		qs, err := ck.s.intern(syntax.Apply(q, sub))
		if err != nil {
			return err
		}
		return ck.verifyStrategy(c, ps, qs, RelOneStep)
	}
	// Positive: one verified one-step certificate per fusion of the free
	// names (the sufficient substitution set — fresh-target substitutions
	// are injective renamings of these).
	byRoot := map[[2]*vterm]int{}
	for i, sc := range c.Subs {
		if sc == nil {
			return fmt.Errorf("cert: congruence sub-certificate %d is nil", i)
		}
		if sc.Relation != RelOneStep || !sc.Related || sc.Weak != c.Weak {
			return fmt.Errorf("cert: congruence sub-certificate %d is not a matching positive one-step certificate", i)
		}
		sp, err := ck.s.parse(sc.P)
		if err != nil {
			return err
		}
		sq, err := ck.s.parse(sc.Q)
		if err != nil {
			return err
		}
		byRoot[[2]*vterm{sp, sq}] = i
	}
	// A fusion is a tuple of images of fn; the odometer walks them in
	// names.EachTuple's order, as the engine does.
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q)).Sorted()
	verified := make([]bool, len(c.Subs))
	return ck.s.eachTuple(fn, len(fn), func(img []names.Name) error {
		sub := make(names.Subst, len(fn))
		for j, x := range fn {
			sub[x] = img[j]
		}
		ps, err := ck.s.intern(syntax.Apply(p, sub))
		if err != nil {
			return err
		}
		qs, err := ck.s.intern(syntax.Apply(q, sub))
		if err != nil {
			return err
		}
		i, ok := byRoot[[2]*vterm{ps, qs}]
		if !ok {
			return fmt.Errorf("cert: no one-step sub-certificate for fusion %s", sub)
		}
		if verified[i] {
			return nil
		}
		if err := ck.verifyPairRelation(c.Subs[i]); err != nil {
			return fmt.Errorf("under substitution %s: %w", sub, err)
		}
		verified[i] = true
		return nil
	})
}
