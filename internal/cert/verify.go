package cert

import (
	"errors"
	"fmt"
	"strings"

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
	// MaxWork bounds the total verification work — term internings plus
	// checked challenges (default 2,000,000).
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
	if c.Version != Version {
		return fmt.Errorf("cert: unsupported certificate version %d (want %d)", c.Version, Version)
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
	case RelLabelled, RelBarbed, RelStep:
		return ck.verifyPairRelation(c)
	case RelOneStep:
		return ck.verifyOneStep(c)
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

// ---- shared relation machinery --------------------------------------------

// relTable is a loaded positive relation: parsed terms, the pair set and the
// per-pair move tables indexed by challenge identity.
type relTable struct {
	terms  []*vterm
	pairs  [][2]int
	moves  []map[string]Move
	member map[string]bool // oriented "kp\x00kq"
}

func moveKey(side, kind, label, ch string, payload []string, moverKey string) string {
	return strings.Join([]string{side, kind, label, ch, strings.Join(payload, ","), moverKey}, "\x00")
}

// loadRelation parses a positive certificate's relation. An empty relation is
// legal — a one-step certificate over challenge-free terms embeds one — and
// simply fails any later membership check.
func (ck *checker) loadRelation(c *Certificate) (*relTable, error) {
	if len(c.Moves) != len(c.Pairs) {
		return nil, fmt.Errorf("cert: %d pairs but %d move tables", len(c.Pairs), len(c.Moves))
	}
	rt := &relTable{pairs: c.Pairs, member: map[string]bool{}}
	rt.terms = make([]*vterm, len(c.Terms))
	for i, src := range c.Terms {
		t, err := ck.s.parse(src)
		if err != nil {
			return nil, err
		}
		rt.terms[i] = t
	}
	rt.moves = make([]map[string]Move, len(c.Pairs))
	for i, pr := range c.Pairs {
		if pr[0] < 0 || pr[0] >= len(rt.terms) || pr[1] < 0 || pr[1] >= len(rt.terms) {
			return nil, fmt.Errorf("cert: pair %d indices out of range", i)
		}
		rt.member[rt.terms[pr[0]].key+"\x00"+rt.terms[pr[1]].key] = true
		mm := make(map[string]Move, len(c.Moves[i]))
		for _, mv := range c.Moves[i] {
			if mv.Pair[0] < 0 || mv.Pair[0] >= len(rt.terms) || mv.Pair[1] < 0 || mv.Pair[1] >= len(rt.terms) {
				return nil, fmt.Errorf("cert: pair %d: move witness indices out of range", i)
			}
			k := moveKey(mv.Side, mv.Kind, mv.Label, mv.Ch, mv.Payload, rt.terms[moverIndexOf(mv)].key)
			mm[k] = mv
		}
		rt.moves[i] = mm
	}
	return rt, nil
}

// moverIndexOf returns which coordinate of the witness pair is the
// challenger's derivative.
func moverIndexOf(mv Move) int {
	if mv.Side == "right" {
		return mv.Pair[1]
	}
	return mv.Pair[0]
}

// has reports membership of (kp, kq) in the relation up to swap: if every
// listed pair passes the closure check, R ∪ R⁻¹ is a bisimulation, so
// either orientation is sound evidence.
func (rt *relTable) has(kp, kq string) bool {
	return rt.member[kp+"\x00"+kq] || rt.member[kq+"\x00"+kp]
}

func keysOf(ts []*vterm) map[string]bool {
	out := make(map[string]bool, len(ts))
	for _, t := range ts {
		out[t.key] = true
	}
	return out
}

// requireMove checks that the challenge (side, kind, label/ch/payload) of the
// given mover derivative is answered by pair i's move table: the recorded
// witness must put the mover's derivative on the challenger's side, an
// actually derivable answer on the other, and the witness pair must be in
// the relation.
func (ck *checker) requireMove(rt *relTable, i int, side, kind, label, ch string,
	payload []string, mover *vterm, answers map[string]bool) error {
	if err := ck.s.work(1); err != nil {
		return err
	}
	mv, ok := rt.moves[i][moveKey(side, kind, label, ch, payload, mover.key)]
	if !ok {
		return fmt.Errorf("cert: pair %d: unanswered %s %s challenge of %s side (to %s)",
			i, kind, label+ch, side, syntax.String(mover.proc))
	}
	ansIdx := mv.Pair[1]
	if side == "right" {
		ansIdx = mv.Pair[0]
	}
	if !answers[rt.terms[ansIdx].key] {
		return fmt.Errorf("cert: pair %d: witness answer %s is not a derivable %s response",
			i, syntax.String(rt.terms[ansIdx].proc), kind)
	}
	if !rt.has(rt.terms[mv.Pair[0]].key, rt.terms[mv.Pair[1]].key) {
		return fmt.Errorf("cert: pair %d: witness pair (%s, %s) is not in the relation",
			i, syntax.String(rt.terms[mv.Pair[0]].proc), syntax.String(rt.terms[mv.Pair[1]].proc))
	}
	return nil
}

// checkClosure verifies that every listed pair discharges every challenge of
// the relation's definition — the relation is a (weak) bisimulation.
func (ck *checker) checkClosure(rt *relTable, kind string, weak bool) error {
	for i, pr := range rt.pairs {
		p, q := rt.terms[pr[0]], rt.terms[pr[1]]
		if err := ck.s.work(1); err != nil {
			return err
		}
		var err error
		switch kind {
		case RelLabelled:
			err = ck.labelledChallenges(rt, i, p, q, weak)
		case RelBarbed:
			err = ck.barbedChallenges(rt, i, p, q, weak)
		case RelStep:
			err = ck.stepChallenges(rt, i, p, q, weak)
		default:
			err = fmt.Errorf("cert: relation %q has no pair closure", kind)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// tauAnswers is the τ-challenge answer set: strong successors, or the full
// τ* closure (staying put allowed) when weak.
func (ck *checker) tauAnswers(t *vterm, weak bool) ([]*vterm, error) {
	if !weak {
		return ck.s.tauSucc(t)
	}
	return ck.s.tauClosure(t)
}

func (ck *checker) labelledChallenges(rt *relTable, i int, p, q *vterm, weak bool) error {
	// Clause 1: τ.
	if err := ck.tauChallenges(rt, i, p, q, weak, "tau"); err != nil {
		return err
	}
	// Clause 2: outputs on identical canonical labels.
	avoid := freeUnion(p, q)
	for _, dir := range [2]struct {
		side         string
		mover, other *vterm
	}{{"left", p, q}, {"right", q, p}} {
		answers, err := ck.outputAnswers(dir.other, avoid, weak)
		if err != nil {
			return err
		}
		for _, mt := range outputsCanon(dir.mover, avoid) {
			mtgt, err := ck.s.intern(mt.Target)
			if err != nil {
				return err
			}
			lab := mt.Act.String()
			if err := ck.requireMove(rt, i, dir.side, "out", lab, "", nil, mtgt, answers[lab]); err != nil {
				return err
			}
		}
	}
	// Clause 3: receptions-or-discards over the pair universe.
	shapes := inputShapes(p)
	for s := range inputShapes(q) {
		shapes[s] = true
	}
	ordered := make([]vshape, 0, len(shapes))
	for s := range shapes {
		ordered = append(ordered, s)
	}
	sortVShapes(ordered)
	for _, sh := range ordered {
		u := pairUniverse(p, q, sh.arity)
		for _, payload := range vtuples(u, sh.arity) {
			if err := ck.s.work(1); err != nil {
				return err
			}
			pm, err := ck.s.reactions(p, sh.ch, payload)
			if err != nil {
				return err
			}
			qm, err := ck.s.reactions(q, sh.ch, payload)
			if err != nil {
				return err
			}
			pAns, qAns := pm, qm
			if weak {
				if pAns, err = ck.s.weakReactions(p, sh.ch, payload); err != nil {
					return err
				}
				if qAns, err = ck.s.weakReactions(q, sh.ch, payload); err != nil {
					return err
				}
			}
			ps := nameStrings(payload)
			qKeys, pKeys := keysOf(qAns), keysOf(pAns)
			for _, r := range pm {
				if err := ck.requireMove(rt, i, "left", "react", "", string(sh.ch), ps, r, qKeys); err != nil {
					return err
				}
			}
			for _, r := range qm {
				if err := ck.requireMove(rt, i, "right", "react", "", string(sh.ch), ps, r, pKeys); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// outputAnswers maps canonical output labels to the answer keys of `other`:
// strong targets, or τ* · label · τ* finals when weak.
func (ck *checker) outputAnswers(other *vterm, avoid names.Set, weak bool) (map[string]map[string]bool, error) {
	answers := map[string]map[string]bool{}
	collect := func(src *vterm) error {
		for _, ot := range outputsCanon(src, avoid) {
			tgt, err := ck.s.intern(ot.Target)
			if err != nil {
				return err
			}
			finals := []*vterm{tgt}
			if weak {
				if finals, err = ck.s.tauClosure(tgt); err != nil {
					return err
				}
			}
			lab := ot.Act.String()
			if answers[lab] == nil {
				answers[lab] = map[string]bool{}
			}
			for _, f := range finals {
				answers[lab][f.key] = true
			}
		}
		return nil
	}
	sources := []*vterm{other}
	if weak {
		cl, err := ck.s.tauClosure(other)
		if err != nil {
			return nil, err
		}
		sources = cl
	}
	for _, s := range sources {
		if err := collect(s); err != nil {
			return nil, err
		}
	}
	return answers, nil
}

func (ck *checker) tauChallenges(rt *relTable, i int, p, q *vterm, weak bool, kind string) error {
	pt, err := ck.s.tauSucc(p)
	if err != nil {
		return err
	}
	qt, err := ck.s.tauSucc(q)
	if err != nil {
		return err
	}
	qAns, err := ck.tauAnswers(q, weak)
	if err != nil {
		return err
	}
	pAns, err := ck.tauAnswers(p, weak)
	if err != nil {
		return err
	}
	qKeys, pKeys := keysOf(qAns), keysOf(pAns)
	for _, ms := range pt {
		if err := ck.requireMove(rt, i, "left", kind, "", "", nil, ms, qKeys); err != nil {
			return err
		}
	}
	for _, ms := range qt {
		if err := ck.requireMove(rt, i, "right", kind, "", "", nil, ms, pKeys); err != nil {
			return err
		}
	}
	return nil
}

func (ck *checker) barbedChallenges(rt *relTable, i int, p, q *vterm, weak bool) error {
	if err := ck.checkBarbs(i, p, q, weak, false); err != nil {
		return err
	}
	return ck.tauChallenges(rt, i, p, q, weak, "tau")
}

func (ck *checker) stepChallenges(rt *relTable, i int, p, q *vterm, weak bool) error {
	if err := ck.checkBarbs(i, p, q, weak, true); err != nil {
		return err
	}
	pa, err := ck.s.autoSucc(p)
	if err != nil {
		return err
	}
	qa, err := ck.s.autoSucc(q)
	if err != nil {
		return err
	}
	pAns, qAns := pa, qa
	if weak {
		if pAns, err = ck.s.autoClosure(p); err != nil {
			return err
		}
		if qAns, err = ck.s.autoClosure(q); err != nil {
			return err
		}
	}
	qKeys, pKeys := keysOf(qAns), keysOf(pAns)
	for _, ms := range pa {
		if err := ck.requireMove(rt, i, "left", "step", "", "", nil, ms, qKeys); err != nil {
			return err
		}
	}
	for _, ms := range qa {
		if err := ck.requireMove(rt, i, "right", "step", "", "", nil, ms, pKeys); err != nil {
			return err
		}
	}
	return nil
}

// checkBarbs verifies the barb condition of barbed (τ* answers) or step
// ((τ∪output)* answers) bisimilarity on one listed pair.
func (ck *checker) checkBarbs(i int, p, q *vterm, weak, auto bool) error {
	pb, qb := strongBarbs(p), strongBarbs(q)
	if !weak {
		if !pb.Equal(qb) {
			return fmt.Errorf("cert: pair %d: strong barbs differ (%v vs %v)", i, pb, qb)
		}
		return nil
	}
	for _, dir := range [2]struct {
		own   names.Set
		other *vterm
		side  string
	}{{pb, q, "right"}, {qb, p, "left"}} {
		for _, a := range dir.own.Sorted() {
			ok, err := ck.s.hasWeakBarb(dir.other, a, auto)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("cert: pair %d: %s side lacks weak barb on %s", i, dir.side, a)
			}
		}
	}
	return nil
}

// ---- pair-relation certificates -------------------------------------------

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
	if !rt.has(p.key, q.key) {
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
	if !unorderedPairEqual(rp.key, rq.key, p.key, q.key) {
		return fmt.Errorf("cert: strategy root attacks (%s, %s), not the certified pair",
			c.Nodes[0].P, c.Nodes[0].Q)
	}
	state := make([]int, len(c.Nodes))
	return ck.checkNode(c, 0, mode, state)
}

// unorderedPairEqual reports {a1, a2} = {b1, b2}: all the paper's relations
// are symmetric, so a strategy may attack the pair in either orientation.
func unorderedPairEqual(a1, a2, b1, b2 string) bool {
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
	attacker, defender := p, q
	switch n.Side {
	case "left":
	case "right":
		attacker, defender = q, p
	default:
		return fmt.Errorf("cert: node %d: bad side %q", idx, n.Side)
	}
	weak := c.Weak
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
		if !strongBarbs(attacker).Contains(a) {
			return fmt.Errorf("cert: node %d: %s side has no barb on %s", idx, n.Side, a)
		}
		if !weak {
			if strongBarbs(defender).Contains(a) {
				return fmt.Errorf("cert: node %d: both sides barb on %s", idx, a)
			}
			return nil
		}
		ok, err := ck.s.hasWeakBarb(defender, a, mode == RelStep)
		if err != nil {
			return err
		}
		if ok {
			return fmt.Errorf("cert: node %d: defender has weak barb on %s", idx, a)
		}
		return nil

	case n.Kind == "tau" && (mode == RelLabelled || mode == RelBarbed || mode == RelOneStep):
		movers, err := ck.s.tauSucc(attacker)
		if err != nil {
			return err
		}
		var answers []*vterm
		if mode == RelOneStep && weak {
			answers, err = ck.nonEmptyTauAnswers(defender)
		} else {
			answers, err = ck.tauAnswers(defender, weak)
		}
		if err != nil {
			return err
		}
		return ck.checkReplies(c, idx, n, movers, answers, childMode, state)

	case n.Kind == "out" && (mode == RelLabelled || mode == RelOneStep):
		avoid := freeUnion(p, q)
		var movers []*vterm
		for _, mt := range outputsCanon(attacker, avoid) {
			if mt.Act.String() != n.Label {
				continue
			}
			t, err := ck.s.intern(mt.Target)
			if err != nil {
				return err
			}
			movers = append(movers, t)
		}
		am, err := ck.outputAnswers(defender, avoid, weak)
		if err != nil {
			return err
		}
		answers, err := ck.termsByKeys(am[n.Label])
		if err != nil {
			return err
		}
		return ck.checkReplies(c, idx, n, movers, answers, childMode, state)

	case n.Kind == "react" && mode == RelLabelled:
		ch, payload := names.Name(n.Ch), toNames(n.Payload)
		movers, err := ck.s.reactions(attacker, ch, payload)
		if err != nil {
			return err
		}
		answers := movers
		if weak {
			if answers, err = ck.s.weakReactions(defender, ch, payload); err != nil {
				return err
			}
		} else if answers, err = ck.s.reactions(defender, ch, payload); err != nil {
			return err
		}
		return ck.checkReplies(c, idx, n, movers, answers, childMode, state)

	case n.Kind == "step" && mode == RelStep:
		movers, err := ck.s.autoSucc(attacker)
		if err != nil {
			return err
		}
		answers := movers
		if weak {
			if answers, err = ck.s.autoClosure(defender); err != nil {
				return err
			}
		} else if answers, err = ck.s.autoSucc(defender); err != nil {
			return err
		}
		return ck.checkReplies(c, idx, n, movers, answers, childMode, state)

	case n.Kind == "in" && mode == RelOneStep:
		ch, payload := names.Name(n.Ch), toNames(n.Payload)
		movers, err := ck.s.inputDerivs(attacker, ch, payload)
		if err != nil {
			return err
		}
		var answers []*vterm
		if weak {
			answers, err = ck.s.weakInputDerivs(defender, ch, payload)
		} else {
			answers, err = ck.s.inputDerivs(defender, ch, payload)
		}
		if err != nil {
			return err
		}
		return ck.checkReplies(c, idx, n, movers, answers, childMode, state)

	case n.Kind == "discard" && mode == RelOneStep:
		ch := names.Name(n.Ch)
		da, err := ck.s.discardsOn(attacker, ch)
		if err != nil {
			return err
		}
		if !da {
			return fmt.Errorf("cert: node %d: %s side does not discard %s", idx, n.Side, ch)
		}
		if !weak {
			if len(n.Replies) > 0 {
				return fmt.Errorf("cert: node %d: strong discard leaf has replies", idx)
			}
			dd, err := ck.s.discardsOn(defender, ch)
			if err != nil {
				return err
			}
			if dd {
				return fmt.Errorf("cert: node %d: both sides discard %s", idx, ch)
			}
			return nil
		}
		// Weak (clause 4 of Definition 15): every τ*-derivative of the
		// defender that also discards ch must be refuted against the
		// (unmoved) discarder, at the labelled level.
		cl, err := ck.s.tauClosure(defender)
		if err != nil {
			return err
		}
		var answers []*vterm
		for _, d := range cl {
			dd, err := ck.s.discardsOn(d, ch)
			if err != nil {
				return err
			}
			if dd {
				answers = append(answers, d)
			}
		}
		return ck.checkReplies(c, idx, n, []*vterm{attacker}, answers, childMode, state)

	default:
		return fmt.Errorf("cert: node %d: kind %q is not valid for a %s strategy", idx, n.Kind, mode)
	}
}

// nonEmptyTauAnswers is the one-step weak τ answer set τ·τ* (staying put is
// NOT allowed — allowing it would let τ.p ≈+ p, which + contexts
// distinguish).
func (ck *checker) nonEmptyTauAnswers(t *vterm) ([]*vterm, error) {
	first, err := ck.s.tauSucc(t)
	if err != nil {
		return nil, err
	}
	seen := map[string]*vterm{}
	for _, f := range first {
		cl, err := ck.s.tauClosure(f)
		if err != nil {
			return nil, err
		}
		for _, s := range cl {
			seen[s.key] = s
		}
	}
	out := make([]*vterm, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sortVTerms(out)
	return out, nil
}

func (ck *checker) termsByKeys(keys map[string]bool) ([]*vterm, error) {
	var out []*vterm
	for k := range keys {
		t, ok := ck.s.byKey[k]
		if !ok {
			return nil, fmt.Errorf("cert: internal: unknown answer key")
		}
		out = append(out, t)
	}
	sortVTerms(out)
	return out, nil
}

// checkReplies validates an attack node: the recorded derivative To must be
// among the re-derived attacker moves, and every re-derived defender answer
// must be refuted by a child node on the right successor pair. A node with
// no replies claims the answer set is empty; extra replies (answers the
// engine saw but the verifier does not re-derive) cannot arise, and
// unmatched ones are ignored.
func (ck *checker) checkReplies(c *Certificate, idx int, n Strategy,
	movers, answers []*vterm, childMode string, state []int) error {
	var to *vterm
	var err error
	if n.Kind == "discard" {
		// Weak discard: the attacker observes its own discard and stays put.
		if len(movers) != 1 {
			return fmt.Errorf("cert: node %d: internal discard mover set", idx)
		}
		to = movers[0]
	} else if to, err = ck.s.parse(n.To); err != nil {
		return err
	}
	found := false
	for _, m := range movers {
		if m.key == to.key {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("cert: node %d: %s is not a derivable %s move of the %s side",
			idx, n.To, n.Kind, n.Side)
	}
	replies := map[string]Reply{}
	for _, r := range n.Replies {
		rt, err := ck.s.parse(r.To)
		if err != nil {
			return err
		}
		if _, dup := replies[rt.key]; !dup {
			replies[rt.key] = r
		}
	}
	for _, ans := range answers {
		r, ok := replies[ans.key]
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
		expL, expR := to.key, ans.key
		if n.Side == "right" {
			expL, expR = ans.key, to.key
		}
		if !unorderedPairEqual(cp.key, cq.key, expL, expR) {
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

func (ck *checker) verifyOneStep(c *Certificate) error {
	p, err := ck.s.parse(c.P)
	if err != nil {
		return err
	}
	q, err := ck.s.parse(c.Q)
	if err != nil {
		return err
	}
	if !c.Related {
		return ck.verifyStrategy(c, p, q, RelOneStep)
	}
	rt, err := ck.loadRelation(c)
	if err != nil {
		return err
	}
	// The embedded relation must be a labelled bisimulation…
	if err := ck.checkClosure(rt, RelLabelled, c.Weak); err != nil {
		return err
	}
	// …and the root pair's strict moves must land in it.
	return ck.oneStepTop(c, rt, p, q)
}

func (ck *checker) oneStepTop(c *Certificate, rt *relTable, p, q *vterm) error {
	top := make(map[string]Move, len(c.TopMoves))
	for _, mv := range c.TopMoves {
		if mv.Pair[0] < 0 || mv.Pair[0] >= len(rt.terms) || mv.Pair[1] < 0 || mv.Pair[1] >= len(rt.terms) {
			return errors.New("cert: top-level move witness indices out of range")
		}
		top[moveKey(mv.Side, mv.Kind, mv.Label, mv.Ch, mv.Payload, rt.terms[moverIndexOf(mv)].key)] = mv
	}
	requireTop := func(side, kind, label, ch string, payload []string, mover *vterm, answers map[string]bool) error {
		if err := ck.s.work(1); err != nil {
			return err
		}
		mv, ok := top[moveKey(side, kind, label, ch, payload, mover.key)]
		if !ok {
			return fmt.Errorf("cert: unanswered root %s %s challenge of %s side", kind, label+ch, side)
		}
		ansIdx := mv.Pair[1]
		if side == "right" {
			ansIdx = mv.Pair[0]
		}
		if !answers[rt.terms[ansIdx].key] {
			return fmt.Errorf("cert: root %s challenge: witness answer %s not derivable",
				kind, syntax.String(rt.terms[ansIdx].proc))
		}
		if !rt.has(rt.terms[mv.Pair[0]].key, rt.terms[mv.Pair[1]].key) {
			return fmt.Errorf("cert: root %s challenge: witness pair not in the embedded relation", kind)
		}
		return nil
	}

	// Discard clause.
	for _, a := range freeUnion(p, q).Sorted() {
		dp, err := ck.s.discardsOn(p, a)
		if err != nil {
			return err
		}
		dq, err := ck.s.discardsOn(q, a)
		if err != nil {
			return err
		}
		if !c.Weak {
			if dp != dq {
				return fmt.Errorf("cert: discard sets differ on %s", a)
			}
			continue
		}
		for _, dir := range [2]struct {
			discards  bool
			side      string
			discarder *vterm
			other     *vterm
		}{{dp, "left", p, q}, {dq, "right", q, p}} {
			if !dir.discards {
				continue
			}
			w, err := findDiscardWitness(c.Discards, string(a), dir.side)
			if err != nil {
				return err
			}
			if w.Pair[0] < 0 || w.Pair[0] >= len(rt.terms) || w.Pair[1] < 0 || w.Pair[1] >= len(rt.terms) {
				return fmt.Errorf("cert: discard witness on %s: indices out of range", a)
			}
			dIdx, oIdx := w.Pair[0], w.Pair[1]
			if dir.side == "right" {
				dIdx, oIdx = w.Pair[1], w.Pair[0]
			}
			if rt.terms[dIdx].key != dir.discarder.key {
				return fmt.Errorf("cert: discard witness on %s: wrong discarder term", a)
			}
			o := rt.terms[oIdx]
			cl, err := ck.s.tauClosure(dir.other)
			if err != nil {
				return err
			}
			if !keysOf(cl)[o.key] {
				return fmt.Errorf("cert: discard witness on %s: %s is not a τ*-derivative of the other side",
					a, syntax.String(o.proc))
			}
			od, err := ck.s.discardsOn(o, a)
			if err != nil {
				return err
			}
			if !od {
				return fmt.Errorf("cert: discard witness on %s: answer does not discard it", a)
			}
			if !rt.has(rt.terms[w.Pair[0]].key, rt.terms[w.Pair[1]].key) {
				return fmt.Errorf("cert: discard witness on %s: pair not in the embedded relation", a)
			}
		}
	}

	// τ, output and strict-input moves, both directions.
	avoid := freeUnion(p, q)
	for _, dir := range [2]struct {
		side            string
		mover, answerer *vterm
	}{{"left", p, q}, {"right", q, p}} {
		// τ.
		mt, err := ck.s.tauSucc(dir.mover)
		if err != nil {
			return err
		}
		var tAns []*vterm
		if c.Weak {
			if tAns, err = ck.nonEmptyTauAnswers(dir.answerer); err != nil {
				return err
			}
		} else if tAns, err = ck.s.tauSucc(dir.answerer); err != nil {
			return err
		}
		tKeys := keysOf(tAns)
		for _, ms := range mt {
			if err := requireTop(dir.side, "tau", "", "", nil, ms, tKeys); err != nil {
				return err
			}
		}
		// Outputs.
		am, err := ck.outputAnswers(dir.answerer, avoid, c.Weak)
		if err != nil {
			return err
		}
		for _, mo := range outputsCanon(dir.mover, avoid) {
			mtgt, err := ck.s.intern(mo.Target)
			if err != nil {
				return err
			}
			lab := mo.Act.String()
			if err := requireTop(dir.side, "out", lab, "", nil, mtgt, am[lab]); err != nil {
				return err
			}
		}
		// Strict inputs.
		mshapes := make([]vshape, 0)
		for s := range inputShapes(dir.mover) {
			mshapes = append(mshapes, s)
		}
		sortVShapes(mshapes)
		for _, sh := range mshapes {
			u := pairUniverse(p, q, sh.arity)
			for _, payload := range vtuples(u, sh.arity) {
				mIns, err := ck.s.inputDerivs(dir.mover, sh.ch, payload)
				if err != nil {
					return err
				}
				if len(mIns) == 0 {
					continue
				}
				var aIns []*vterm
				if c.Weak {
					aIns, err = ck.s.weakInputDerivs(dir.answerer, sh.ch, payload)
				} else {
					aIns, err = ck.s.inputDerivs(dir.answerer, sh.ch, payload)
				}
				if err != nil {
					return err
				}
				aKeys := keysOf(aIns)
				ps := nameStrings(payload)
				for _, md := range mIns {
					if err := requireTop(dir.side, "in", "", string(sh.ch), ps, md, aKeys); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

func findDiscardWitness(ws []DiscardWitness, ch, side string) (DiscardWitness, error) {
	for _, w := range ws {
		if w.Ch == ch && w.Side == side {
			return w, nil
		}
	}
	return DiscardWitness{}, fmt.Errorf("cert: missing discard witness for %s on the %s side", ch, side)
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
	byRoot := map[string]int{}
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
		byRoot[sp.key+"\x00"+sq.key] = i
	}
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q)).Sorted()
	subs := names.AllFusions(fn, fn)
	if len(subs) == 0 {
		subs = []names.Subst{{}}
	}
	verified := map[int]bool{}
	for _, sub := range subs {
		ps, err := ck.s.intern(syntax.Apply(p, sub))
		if err != nil {
			return err
		}
		qs, err := ck.s.intern(syntax.Apply(q, sub))
		if err != nil {
			return err
		}
		i, ok := byRoot[ps.key+"\x00"+qs.key]
		if !ok {
			return fmt.Errorf("cert: no one-step sub-certificate for fusion %s", sub)
		}
		if verified[i] {
			continue
		}
		if err := ck.verifyOneStep(c.Subs[i]); err != nil {
			return fmt.Errorf("under substitution %s: %w", sub, err)
		}
		verified[i] = true
	}
	return nil
}
