package cert

import (
	"errors"
	"fmt"
	"strings"

	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/syntax"
)

// OutLabel renders the canonical label of an output summand — channel, full
// object tuple and (for bound outputs) the canonical extruded binder. The
// prover's proof recorder and this verifier must agree on it, so it lives
// here and internal/axioms calls it.
func OutLabel(ch string, objs []string, bound bool, binder []string) string {
	if bound {
		return ch + "!(nu " + strings.Join(binder, ",") + ";" + strings.Join(objs, ",") + ")"
	}
	return ch + "!(" + strings.Join(objs, ",") + ")"
}

// vsum is the verifier's head-normal-form summand (mirrors the prover's
// Summand without importing internal/axioms).
type vsum struct {
	kind   int // 0 τ, 1 out, 2 in
	ch     names.Name
	objs   []names.Name
	binder []names.Name
	bound  bool
	cont   syntax.Proc
}

const (
	sumTau = iota
	sumOut
	sumIn
)

func (s vsum) label() string {
	return OutLabel(string(s.ch), nameStrings(s.objs), s.bound, nameStrings(s.binder))
}

// eachVWorld calls f on the representative substitution of each partition
// of v, in the same order as the prover (element i joins each existing
// class in order, then founds a new one), until f returns false. Only the
// partition f is given is built, so the verifier's work on worlds stops
// with the certificate's list of them.
func eachVWorld(v names.Set, f func(rep names.Subst) bool) {
	sorted := v.Sorted()
	var rec func(i int, classes [][]names.Name) bool
	rec = func(i int, classes [][]names.Name) bool {
		if i == len(sorted) {
			rep := names.Subst{}
			for _, cls := range classes {
				least := cls[0]
				for _, x := range cls {
					if x < least {
						least = x
					}
				}
				for _, x := range cls {
					rep[x] = least
				}
			}
			return f(rep)
		}
		x := sorted[i]
		for k := range classes {
			classes[k] = append(classes[k], x)
			more := rec(i+1, classes)
			classes[k] = classes[k][:len(classes[k])-1]
			if !more {
				return false
			}
		}
		return rec(i+1, append(classes, []names.Name{x}))
	}
	rec(0, nil)
}

func sameRep(got map[string]string, want names.Subst) bool {
	if len(got) != len(want) {
		return false
	}
	for k, v := range want {
		if got[string(k)] != string(v) {
			return false
		}
	}
	return true
}

// partitionRep checks got directly, without enumerating partitions: it must
// map exactly the names of v, each to the least name of its class, which
// maps to itself. Those are the representative substitutions of the
// partitions of v.
func partitionRep(got map[string]string, v names.Set) (names.Subst, bool) {
	if len(got) != v.Len() {
		return nil, false
	}
	rep := names.Subst{}
	for _, x := range v.Sorted() {
		r, ok := got[string(x)]
		if !ok || !v.Contains(names.Name(r)) || names.Name(r) > x || got[r] != r {
			return nil, false
		}
		rep[x] = names.Name(r)
	}
	return rep, true
}

// verifyAxioms replays a Decide proof object: world coverage at the top,
// then the goal DAG — strict shape/discard comparisons, (H)-saturations,
// summand matchings and (SP) input instantiations — each re-derived from
// the LTS rules. A proof must list every world of the pair, and each world
// is charged to MaxWork; a refutation names one world, checked directly.
func (ck *checker) verifyAxioms(c *Certificate) error {
	if c.Proof == nil {
		return errors.New("cert: axioms certificate has no proof")
	}
	p, err := parseTerm(c.P)
	if err != nil {
		return err
	}
	q, err := parseTerm(c.Q)
	if err != nil {
		return err
	}
	if !syntax.IsFinite(p) || !syntax.IsFinite(q) {
		return errors.New("cert: axioms certificates cover finite processes only")
	}
	av := &axVerifier{ck: ck, goals: c.Proof.Goals, state: make([]int, len(c.Proof.Goals))}
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q))
	if c.Related {
		i := 0
		eachVWorld(fn, func(rep names.Subst) bool {
			if i == len(c.Proof.Worlds) {
				err = fmt.Errorf("cert: proof covers %d worlds, the pair has more", i)
				return false
			}
			if err = ck.s.work(1); err != nil {
				return false
			}
			ws := c.Proof.Worlds[i]
			if !sameRep(ws.Rep, rep) {
				err = fmt.Errorf("cert: world %d representative differs from the enumeration", i)
				return false
			}
			pw, qw := syntax.Apply(p, rep), syntax.Apply(q, rep)
			if err = av.checkGoal(ws.Goal, syntax.String(pw), syntax.String(qw), false, true); err != nil {
				err = fmt.Errorf("world %d: %w", i, err)
				return false
			}
			i++
			return true
		})
		if err == nil && i < len(c.Proof.Worlds) {
			err = fmt.Errorf("cert: proof covers %d worlds, the pair has %d", len(c.Proof.Worlds), i)
		}
		return err
	}
	if len(c.Proof.Worlds) != 1 {
		return fmt.Errorf("cert: refutation must name exactly one failing world, got %d", len(c.Proof.Worlds))
	}
	ws := c.Proof.Worlds[0]
	rep, ok := partitionRep(ws.Rep, fn)
	if !ok {
		return errors.New("cert: refuting world is not a partition of the pair's free names")
	}
	pw, qw := syntax.Apply(p, rep), syntax.Apply(q, rep)
	return av.checkGoal(ws.Goal, syntax.String(pw), syntax.String(qw), false, false)
}

type axVerifier struct {
	ck    *checker
	goals []Goal
	state []int
}

// checkGoal verifies that goal i proves (or refutes) exactly the comparison
// the parent expects, then replays its body once (the DAG is shared; cycles
// are rejected — the induction measure of Theorem 7 strictly decreases, so
// a cyclic proof is no proof).
func (av *axVerifier) checkGoal(i int, wantP, wantQ string, wantSat, wantProved bool) error {
	if i < 0 || i >= len(av.goals) {
		return fmt.Errorf("cert: goal index %d out of range", i)
	}
	g := av.goals[i]
	if g.P != wantP || g.Q != wantQ {
		return fmt.Errorf("cert: goal %d compares (%s, %s), parent expected (%s, %s)", i, g.P, g.Q, wantP, wantQ)
	}
	if g.Saturate != wantSat {
		return fmt.Errorf("cert: goal %d saturation level mismatch", i)
	}
	if g.Proved != wantProved {
		return fmt.Errorf("cert: goal %d verdict %v, parent expected %v", i, g.Proved, wantProved)
	}
	switch av.state[i] {
	case nodeDone:
		return nil
	case nodeInProgress:
		return fmt.Errorf("cert: cyclic proof through goal %d", i)
	}
	av.state[i] = nodeInProgress
	if err := av.checkGoal1(i, g); err != nil {
		return err
	}
	av.state[i] = nodeDone
	return nil
}

func (av *axVerifier) checkGoal1(i int, g Goal) error {
	if err := av.ck.s.work(1); err != nil {
		return err
	}
	if g.Proved && g.FailKind != "" {
		return fmt.Errorf("cert: goal %d is marked proved but records failure kind %q", i, g.FailKind)
	}
	p, err := parser.Parse(g.P)
	if err != nil {
		return fmt.Errorf("cert: goal %d: bad term: %w", i, err)
	}
	q, err := parser.Parse(g.Q)
	if err != nil {
		return fmt.Errorf("cert: goal %d: bad term: %w", i, err)
	}
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q))
	pT, pO, pI, err := av.summands(p, fn)
	if err != nil {
		return err
	}
	qT, qO, qI, err := av.summands(q, fn)
	if err != nil {
		return err
	}
	pShapes, qShapes := vShapesOf(pI), vShapesOf(qI)

	if !g.Saturate {
		// Strict phase: equal input shapes AND equal Table 2 discard sets.
		if g.FailKind == "shapes" {
			if vShapeEq(pShapes, qShapes) {
				return fmt.Errorf("cert: goal %d claims a shape mismatch, but shapes agree", i)
			}
			return nil
		}
		if !vShapeEq(pShapes, qShapes) {
			return fmt.Errorf("cert: goal %d: input shapes differ but goal does not record it", i)
		}
		if g.FailKind == "discards" {
			a := names.Name(g.FailName)
			if !fn.Contains(a) {
				return fmt.Errorf("cert: goal %d: discard-failure name %s is not free in the pair", i, a)
			}
			dp, err := av.ck.s.sys.Discards(p, a)
			if err != nil {
				return err
			}
			dq, err := av.ck.s.sys.Discards(q, a)
			if err != nil {
				return err
			}
			if dp == dq {
				return fmt.Errorf("cert: goal %d claims discard sets differ on %s, but they agree", i, a)
			}
			return nil
		}
		for _, a := range fn.Sorted() {
			dp, err := av.ck.s.sys.Discards(p, a)
			if err != nil {
				return err
			}
			dq, err := av.ck.s.sys.Discards(q, a)
			if err != nil {
				return err
			}
			if dp != dq {
				return fmt.Errorf("cert: goal %d: discard sets differ on %s but goal does not record it", i, a)
			}
		}
	} else {
		// (H) saturation: complete each side with inoffensive inputs for the
		// shapes only the other side listens on (and the side discards).
		satP, err := av.saturations(p, pShapes, qShapes, fn)
		if err != nil {
			return err
		}
		satQ, err := av.saturations(q, qShapes, pShapes, fn)
		if err != nil {
			return err
		}
		pI = append(pI, satP...)
		qI = append(qI, satQ...)
		pShapes, qShapes = vShapesOf(pI), vShapesOf(qI)
		if g.FailKind == "sat-shapes" {
			if vShapeEq(pShapes, qShapes) {
				return fmt.Errorf("cert: goal %d claims a post-saturation shape mismatch, but shapes agree", i)
			}
			return nil
		}
		if !vShapeEq(pShapes, qShapes) {
			return fmt.Errorf("cert: goal %d: saturated shapes differ but goal does not record it", i)
		}
	}

	if g.Proved {
		return av.checkProved(i, g, pT, pO, pI, qT, qO, qI, fn)
	}
	return av.checkRefuted(i, g, pT, pO, pI, qT, qO, qI, fn)
}

func (av *axVerifier) checkProved(i int, g Goal, pT, pO, pI, qT, qO, qI []vsum, fn names.Set) error {
	// τ summands: both directions, partner must be a real τ continuation.
	taus := map[string]MatchStep{}
	for _, st := range g.Taus {
		taus[st.Side+"\x00"+st.Cont] = st
	}
	for _, dir := range [2]struct {
		side           string
		movers, others []vsum
	}{{"left", pT, qT}, {"right", qT, pT}} {
		partnerConts := map[string]bool{}
		for _, r := range dir.others {
			partnerConts[syntax.String(r.cont)] = true
		}
		for _, s := range dir.movers {
			cont := syntax.String(s.cont)
			st, ok := taus[dir.side+"\x00"+cont]
			if !ok {
				return fmt.Errorf("cert: goal %d: unmatched τ summand %s on the %s side", i, cont, dir.side)
			}
			if !partnerConts[st.Partner] {
				return fmt.Errorf("cert: goal %d: τ partner %s is not a τ summand of the other side", i, st.Partner)
			}
			if err := av.checkGoal(st.Next, cont, st.Partner, true, true); err != nil {
				return err
			}
		}
	}
	// Output summands: matched on identical canonical labels.
	outs := map[string]MatchStep{}
	for _, st := range g.Outs {
		outs[st.Side+"\x00"+st.Label+"\x00"+st.Cont] = st
	}
	for _, dir := range [2]struct {
		side           string
		movers, others []vsum
	}{{"left", pO, qO}, {"right", qO, pO}} {
		for _, s := range dir.movers {
			lab, cont := s.label(), syntax.String(s.cont)
			st, ok := outs[dir.side+"\x00"+lab+"\x00"+cont]
			if !ok {
				return fmt.Errorf("cert: goal %d: unmatched output %s on the %s side", i, lab, dir.side)
			}
			okPartner := false
			for _, r := range dir.others {
				if r.label() == lab && syntax.String(r.cont) == st.Partner {
					okPartner = true
					break
				}
			}
			if !okPartner {
				return fmt.Errorf("cert: goal %d: output partner %s has no summand with label %s", i, st.Partner, lab)
			}
			if err := av.checkGoal(st.Next, cont, st.Partner, true, true); err != nil {
				return err
			}
		}
	}
	// Input summands: per-instantiation (SP) matching, both directions.
	ins := map[string]InStep{}
	for _, st := range g.Ins {
		ins[st.Side+"\x00"+st.Ch+"\x00"+strings.Join(st.Payload, ",")+"\x00"+st.Cont] = st
	}
	for _, dir := range [2]struct {
		side           string
		movers, others []vsum
	}{{"left", pI, qI}, {"right", qI, pI}} {
		for _, l := range dir.movers {
			err := av.ck.s.eachTuple(pairUniverse(fn, len(l.binder)), len(l.binder), func(payload []names.Name) error {
				lc := syntax.String(syntax.Instantiate(l.cont, l.binder, payload))
				ps := strings.Join(nameStrings(payload), ",")
				st, ok := ins[dir.side+"\x00"+string(l.ch)+"\x00"+ps+"\x00"+lc]
				if !ok {
					return fmt.Errorf("cert: goal %d: unmatched input instantiation %s?(%s) on the %s side",
						i, l.ch, ps, dir.side)
				}
				okPartner := false
				for _, r := range dir.others {
					if r.ch != l.ch || len(r.binder) != len(l.binder) {
						continue
					}
					if syntax.String(syntax.Instantiate(r.cont, r.binder, payload)) == st.Partner {
						okPartner = true
						break
					}
				}
				if !okPartner {
					return fmt.Errorf("cert: goal %d: input partner %s is not an instantiation of the other side", i, st.Partner)
				}
				return av.checkGoal(st.Next, lc, st.Partner, true, true)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// checkRefuted verifies a summand-matching failure: the named mover exists,
// and EVERY candidate partner is refuted by a recorded sub-refutation.
func (av *axVerifier) checkRefuted(i int, g Goal, pT, pO, pI, qT, qO, qI []vsum, fn names.Set) error {
	refutes := map[string]RefuteStep{}
	for _, r := range g.Refutes {
		refutes[r.Partner] = r
	}
	refuteAll := func(moverCont string, partners []string) error {
		seen := map[string]bool{}
		for _, pc := range partners {
			if seen[pc] {
				continue
			}
			seen[pc] = true
			r, ok := refutes[pc]
			if !ok {
				return fmt.Errorf("cert: goal %d: candidate partner %s is not refuted", i, pc)
			}
			if err := av.checkGoal(r.Next, moverCont, pc, true, false); err != nil {
				return err
			}
		}
		return nil
	}
	movers := func(left []vsum, right []vsum) []vsum {
		if g.FailSide == "right" {
			return right
		}
		return left
	}
	switch g.FailKind {
	case "tau":
		ms, os := movers(pT, qT), movers(qT, pT)
		if !hasCont(ms, g.FailCont) {
			return fmt.Errorf("cert: goal %d: no τ summand with continuation %s on the %s side", i, g.FailCont, g.FailSide)
		}
		var partners []string
		for _, r := range os {
			partners = append(partners, syntax.String(r.cont))
		}
		return refuteAll(g.FailCont, partners)
	case "out":
		ms, os := movers(pO, qO), movers(qO, pO)
		found := false
		for _, s := range ms {
			if s.label() == g.FailLabel && syntax.String(s.cont) == g.FailCont {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cert: goal %d: no output %s with continuation %s on the %s side",
				i, g.FailLabel, g.FailCont, g.FailSide)
		}
		var partners []string
		for _, r := range os {
			if r.label() == g.FailLabel {
				partners = append(partners, syntax.String(r.cont))
			}
		}
		return refuteAll(g.FailCont, partners)
	case "in":
		ms, os := movers(pI, qI), movers(qI, pI)
		ch, payload := names.Name(g.FailName), toNames(g.FailPayload)
		found := false
		for _, l := range ms {
			if l.ch != ch || len(l.binder) != len(payload) {
				continue
			}
			if syntax.String(syntax.Instantiate(l.cont, l.binder, payload)) == g.FailCont {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("cert: goal %d: no input instantiation %s?(%s) yielding %s on the %s side",
				i, ch, strings.Join(g.FailPayload, ","), g.FailCont, g.FailSide)
		}
		var partners []string
		for _, r := range os {
			if r.ch != ch || len(r.binder) != len(payload) {
				continue
			}
			partners = append(partners, syntax.String(syntax.Instantiate(r.cont, r.binder, payload)))
		}
		return refuteAll(g.FailCont, partners)
	default:
		return fmt.Errorf("cert: goal %d: refuted with unknown failure kind %q", i, g.FailKind)
	}
}

func hasCont(ss []vsum, cont string) bool {
	for _, s := range ss {
		if syntax.String(s.cont) == cont {
			return true
		}
	}
	return false
}

// summands mirrors the prover's summandSets: the τ/output/input summand
// lists with bound outputs canonicalised against the pair's free names.
func (av *axVerifier) summands(p syntax.Proc, avoid names.Set) (taus, outs, ins []vsum, err error) {
	ts, err := av.ck.s.sys.Steps(p)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, t := range ts {
		switch {
		case t.Act.IsTau():
			taus = append(taus, vsum{kind: sumTau, cont: t.Target})
		case t.Act.IsInput():
			ins = append(ins, vsum{kind: sumIn, ch: t.Act.Subj, binder: t.Act.Objs, cont: t.Target})
		default:
			if len(t.Act.Bound) > 0 {
				t = canonOut(t, avoid)
				outs = append(outs, vsum{kind: sumOut, ch: t.Act.Subj, objs: t.Act.Objs,
					binder: t.Act.Bound, bound: true, cont: t.Target})
			} else {
				outs = append(outs, vsum{kind: sumOut, ch: t.Act.Subj, objs: t.Act.Objs, cont: t.Target})
			}
		}
	}
	return taus, outs, ins, nil
}

// saturations mirrors the prover's (H) completion: one inoffensive input
// per shape the other side listens on and p discards, binder fresh for fn.
func (av *axVerifier) saturations(p syntax.Proc, own, other map[vshape]bool, fn names.Set) ([]vsum, error) {
	var out []vsum
	for sh := range other {
		if own[sh] {
			continue
		}
		disc, err := av.ck.s.sys.Discards(p, sh.ch)
		if err != nil {
			return nil, err
		}
		if !disc {
			continue
		}
		binder := make([]names.Name, sh.arity)
		avoid := fn.Clone()
		for j := range binder {
			binder[j] = syntax.FreshVariant("z", avoid)
			avoid = avoid.Add(binder[j])
		}
		out = append(out, vsum{kind: sumIn, ch: sh.ch, binder: binder, cont: p})
	}
	return out, nil
}

func vShapesOf(ins []vsum) map[vshape]bool {
	out := map[vshape]bool{}
	for _, s := range ins {
		out[vshape{s.ch, len(s.binder)}] = true
	}
	return out
}

func vShapeEq(a, b map[vshape]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
