package equiv

import (
	"context"
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

// OneStep decides the auxiliary one-step relation ~+ (Definition 11) or ≈+
// (Definition 15).
//
// Unlike the bisimilarities, ~+ matches moves *strictly by action*: a τ by a
// τ, an output by an equal (canonical) output, an input a(c̃) by an input
// a(c̃), and a discard a: by a discard a: — successors are then compared
// under the full (noisy) labelled bisimilarity ~. This strictness is what
// separates ~+ from ~ (Remark 4: a ~ b for input prefixes a, b, yet a ≁+ b
// because their discard sets differ) and is the reason the completeness
// proof of Theorem 7 saturates head normal forms with axiom (H) until
// neither side can discard an input of the other.
//
// Closing ~+ (resp. ≈+) under all substitutions yields the congruence ~c
// (resp. ≈c) — see Congruence.
func (c *Checker) OneStep(p, q syntax.Proc, weak bool) (bool, error) {
	return c.OneStepCtx(context.Background(), p, q, weak)
}

// OneStepCtx is OneStep honouring ctx: cancellation aborts the move
// enumeration (and the labelled sub-queries) with an ErrCanceled.
func (c *Checker) OneStepCtx(ctx context.Context, p, q syntax.Proc, weak bool) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pi, err := c.intern(p)
	if err != nil {
		return false, err
	}
	qi, err := c.intern(q)
	if err != nil {
		return false, err
	}
	_, ok, err := c.oneStep(ctx, pi, qi, weak, nil)
	return ok, err
}

// OneStepCert is OneStep returning a checkable certificate alongside the
// verdict. Requires the Certify option (the labelled sub-queries supply the
// embedded evidence).
func (c *Checker) OneStepCert(p, q syntax.Proc, weak bool) (*cert.Certificate, bool, error) {
	return c.OneStepCertCtx(context.Background(), p, q, weak)
}

// OneStepCertCtx is OneStepCert honouring ctx.
func (c *Checker) OneStepCertCtx(ctx context.Context, p, q syntax.Proc, weak bool) (*cert.Certificate, bool, error) {
	if !c.Certify {
		return nil, false, fmt.Errorf("equiv: one-step certification requires the Certify option")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	pi, err := c.intern(p)
	if err != nil {
		return nil, false, err
	}
	qi, err := c.intern(q)
	if err != nil {
		return nil, false, err
	}
	return c.oneStep(ctx, pi, qi, weak, newOSEmit(c, ctx, weak, pi, qi))
}

// oneStep is the single implementation behind OneStepCtx and OneStepCertCtx:
// em == nil runs verdict-only, otherwise every discharged strict challenge is
// recorded (top move + merged labelled relation) and the first failing one
// becomes the negative certificate.
func (c *Checker) oneStep(ctx context.Context, pi, qi *termInfo, weak bool, em *osEmit) (*cert.Certificate, bool, error) {
	// Discard clause. Strong: the discard move a: of one side must be
	// matched by a discard of the other, with successors (the processes
	// themselves) related — which makes the discard sets over the shared
	// free names coincide. Weak (clause 4 of Definition 15): a discard of
	// one side must be weakly available on the other (after τ*), with the
	// resting state related to the still-discarding side.
	chans := freeUnion(pi, qi).Sorted()
	for _, a := range chans {
		if err := ctx.Err(); err != nil {
			return nil, false, ErrCanceled{err}
		}
		dp, err := c.discardsOn(pi, a)
		if err != nil {
			return nil, false, err
		}
		dq, err := c.discardsOn(qi, a)
		if err != nil {
			return nil, false, err
		}
		if !weak {
			if dp != dq {
				if em == nil {
					return nil, false, nil
				}
				side := "left"
				if dq {
					side = "right"
				}
				// Strong discard mismatch is a leaf: the attacker
				// discards a, the defender provably does not.
				crt := em.header(false)
				crt.Nodes = []cert.Strategy{{
					P: stringOf(pi), Q: stringOf(qi),
					Kind: "discard", Side: side, Ch: string(a),
				}}
				return crt, false, nil
			}
			continue
		}
		if dp {
			crt, ok, err := c.weakDiscardMatch(ctx, pi, qi, a, "left", em)
			if err != nil || !ok {
				return crt, false, err
			}
		}
		if dq {
			crt, ok, err := c.weakDiscardMatch(ctx, qi, pi, a, "right", em)
			if err != nil || !ok {
				return crt, false, err
			}
		}
	}
	if crt, ok, err := c.oneStepDirected(ctx, pi, qi, weak, "left", em); err != nil || !ok {
		return crt, ok, err
	}
	if crt, ok, err := c.oneStepDirected(ctx, qi, pi, weak, "right", em); err != nil || !ok {
		return crt, ok, err
	}
	if em == nil {
		return nil, true, nil
	}
	return em.positive(), true, nil
}

// weakDiscardMatch checks clause 4 of Definition 15: discarder --a:-->
// (staying put) must be answered by other =ε=> o' with o' discarding a and
// the pair (discarder, o') weakly bisimilar.
func (c *Checker) weakDiscardMatch(ctx context.Context, discarder, other *termInfo, a names.Name, side string, em *osEmit) (*cert.Certificate, bool, error) {
	cl, err := c.tauClosure(other)
	if err != nil {
		return nil, false, err
	}
	var answers []*termInfo
	for _, s := range cl {
		d, err := c.discardsOn(s, a)
		if err != nil {
			return nil, false, err
		}
		if d {
			answers = append(answers, s)
		}
	}
	for _, s := range answers {
		r, err := c.LabelledCtx(ctx, discarder.proc, s.proc, true)
		if err != nil {
			return nil, false, err
		}
		if r.Related {
			if em != nil {
				if err := em.discardWitness(side, a, discarder, s, r.Cert); err != nil {
					return nil, false, err
				}
			}
			return nil, true, nil
		}
	}
	if em == nil {
		return nil, false, nil
	}
	crt, err := em.refute("discard", side, "", a, nil, nil, answers)
	return crt, false, err
}

// oneStepDirected checks the mover→answerer half of Definitions 11/15 for
// τ, output and input moves. side names the mover ("left" = pi moved).
func (c *Checker) oneStepDirected(ctx context.Context, mover, answerer *termInfo, weak bool, side string, em *osEmit) (*cert.Certificate, bool, error) {
	avoid := freeUnion(mover, answerer)

	// τ moves. In the weak case a τ of the mover must be answered by at
	// least one τ of the answerer (τ·τ*, as in observational congruence):
	// allowing the empty answer would let τ.p ≈+ p, which + contexts
	// distinguish, contradicting Theorem 4 (≈c is a congruence).
	mt, err := c.tauSucc(mover)
	if err != nil {
		return nil, false, err
	}
	var tauTargets []*termInfo
	if weak {
		first, err := c.tauSucc(answerer)
		if err != nil {
			return nil, false, err
		}
		seen := map[uint64]*termInfo{}
		for _, f := range first {
			cl, err := c.tauClosure(f)
			if err != nil {
				return nil, false, err
			}
			for _, s := range cl {
				seen[s.id] = s
			}
		}
		for _, s := range seen {
			tauTargets = append(tauTargets, s)
		}
		sortTerms(tauTargets)
	} else {
		if tauTargets, err = c.tauSucc(answerer); err != nil {
			return nil, false, err
		}
	}
	for _, ms := range mt {
		crt, ok, err := c.strictMatch(ctx, em, weak, "tau", side, "", "", nil, ms, tauTargets)
		if err != nil || !ok {
			return crt, false, err
		}
	}

	// Output moves, matched on identical canonical labels.
	answers := map[string][]*termInfo{}
	sources := []*termInfo{answerer}
	if weak {
		if sources, err = c.tauClosure(answerer); err != nil {
			return nil, false, err
		}
	}
	for _, src := range sources {
		for _, ot := range outputsCanon(src, avoid) {
			tgt, err := c.intern(ot.Target)
			if err != nil {
				return nil, false, err
			}
			finals := []*termInfo{tgt}
			if weak {
				if finals, err = c.tauClosure(tgt); err != nil {
					return nil, false, err
				}
			}
			answers[ot.Act.String()] = append(answers[ot.Act.String()], finals...)
		}
	}
	for _, mo := range outputsCanon(mover, avoid) {
		mtgt, err := c.intern(mo.Target)
		if err != nil {
			return nil, false, err
		}
		lab := mo.Act.String()
		crt, ok, err := c.strictMatch(ctx, em, weak, "out", side, lab, "", nil, mtgt, answers[lab])
		if err != nil || !ok {
			return crt, false, err
		}
	}

	// Input moves: strictly input-by-input on the same ground label.
	mshapes := make([]shape, 0)
	for s := range inputShapes(mover) {
		mshapes = append(mshapes, s)
	}
	sortShapes(mshapes)
	for _, s := range mshapes {
		u := pairUniverse(mover, answerer, s.arity)
		for _, payload := range tuples(u, s.arity) {
			if err := ctx.Err(); err != nil {
				return nil, false, ErrCanceled{err}
			}
			mIns, err := c.inputDerivatives(mover, s.ch, payload)
			if err != nil {
				return nil, false, err
			}
			if len(mIns) == 0 {
				continue
			}
			aIns, err := c.weakInputDerivatives(answerer, s.ch, payload, weak)
			if err != nil {
				return nil, false, err
			}
			for _, md := range mIns {
				crt, ok, err := c.strictMatch(ctx, em, weak, "in", side, "", s.ch, payload, md, aIns)
				if err != nil || !ok {
					return crt, false, err
				}
			}
		}
	}
	return nil, true, nil
}

// strictMatch discharges one strict challenge: the mover's derivative must be
// labelled-bisimilar to some answer. With an emitter, success records the
// witness top move and failure assembles the negative certificate.
func (c *Checker) strictMatch(ctx context.Context, em *osEmit, weak bool, kind, side, label string,
	ch names.Name, payload []names.Name, mover *termInfo, answers []*termInfo) (*cert.Certificate, bool, error) {
	for _, ans := range answers {
		r, err := c.LabelledCtx(ctx, mover.proc, ans.proc, weak)
		if err != nil {
			return nil, false, err
		}
		if r.Related {
			if em != nil {
				if err := em.answer(kind, side, label, ch, payload, mover, ans, r.Cert); err != nil {
					return nil, false, err
				}
			}
			return nil, true, nil
		}
	}
	if em == nil {
		return nil, false, nil
	}
	crt, err := em.refute(kind, side, label, ch, payload, mover, answers)
	return crt, false, err
}

// inputDerivatives returns the genuine reception derivatives (no discard).
func (c *Checker) inputDerivatives(ti *termInfo, ch names.Name, payload []names.Name) ([]*termInfo, error) {
	var out []*termInfo
	for _, t := range ti.trans {
		if !t.Act.IsInput() || t.Act.Subj != ch || len(t.Act.Objs) != len(payload) {
			continue
		}
		_, tgt := semanticsInstantiate(t, payload)
		s, err := c.intern(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// weakInputDerivatives returns the (weak, when requested) reception answers:
// =ε=> · a(c̃) · =ε=> (strict input in the middle).
func (c *Checker) weakInputDerivatives(ti *termInfo, ch names.Name, payload []names.Name, weak bool) ([]*termInfo, error) {
	if !weak {
		return c.inputDerivatives(ti, ch, payload)
	}
	pre, err := c.tauClosure(ti)
	if err != nil {
		return nil, err
	}
	seen := map[uint64]*termInfo{}
	for _, s := range pre {
		ds, err := c.inputDerivatives(s, ch, payload)
		if err != nil {
			return nil, err
		}
		for _, d := range ds {
			post, err := c.tauClosure(d)
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

// ---- one-step certificate emission -----------------------------------------

// osEmit accumulates one-step certificate evidence: the strict top-level move
// table, the weak discard witnesses, and the union of the labelled
// sub-certificates as one merged relation.
type osEmit struct {
	c        *Checker
	ctx      context.Context
	weak     bool
	pi, qi   *termInfo
	rel      relMerger
	top      []cert.Move
	discards []cert.DiscardWitness
}

func newOSEmit(c *Checker, ctx context.Context, weak bool, pi, qi *termInfo) *osEmit {
	return &osEmit{c: c, ctx: ctx, weak: weak, pi: pi, qi: qi, rel: newRelMerger()}
}

func (em *osEmit) header(related bool) *cert.Certificate {
	return &cert.Certificate{
		Version:  cert.Version,
		Relation: cert.RelOneStep,
		Weak:     em.weak,
		Related:  related,
		P:        stringOf(em.pi),
		Q:        stringOf(em.qi),
	}
}

// answer records one discharged strict challenge: the labelled certificate of
// the witness pair is merged into the relation and the top move points at it.
func (em *osEmit) answer(kind, side, label string, ch names.Name, payload []names.Name,
	mover, ans *termInfo, sub *cert.Certificate) error {
	if err := em.rel.add(sub); err != nil {
		return err
	}
	l, r := mover, ans
	if side == "right" {
		l, r = ans, mover
	}
	em.top = append(em.top, cert.Move{
		Side: side, Kind: kind, Label: label, Ch: string(ch), Payload: stringNames(payload),
		Pair: [2]int{em.rel.term(stringOf(l)), em.rel.term(stringOf(r))},
	})
	return nil
}

// discardWitness records one discharged weak discard clause instance.
func (em *osEmit) discardWitness(side string, a names.Name, discarder, s *termInfo, sub *cert.Certificate) error {
	if err := em.rel.add(sub); err != nil {
		return err
	}
	l, r := discarder, s
	if side == "right" {
		l, r = s, discarder
	}
	em.discards = append(em.discards, cert.DiscardWitness{
		Ch: string(a), Side: side,
		Pair: [2]int{em.rel.term(stringOf(l)), em.rel.term(stringOf(r))},
	})
	return nil
}

func (em *osEmit) positive() *cert.Certificate {
	crt := em.header(true)
	crt.Terms, crt.Pairs, crt.Moves = em.rel.terms, em.rel.pairs, em.rel.moves
	crt.TopMoves, crt.Discards = em.top, em.discards
	return crt
}

// refute assembles the negative certificate at the first failing strict
// challenge: the root node is the challenge itself, and each reply embeds the
// labelled strategy refuting one defender answer. A nil mover marks the weak
// discard clause, where the attacker stays put.
func (em *osEmit) refute(kind, side, label string, ch names.Name, payload []names.Name,
	mover *termInfo, answers []*termInfo) (*cert.Certificate, error) {
	crt := em.header(false)
	root := cert.Strategy{
		P: stringOf(em.pi), Q: stringOf(em.qi),
		Kind: kind, Side: side, Label: label, Ch: string(ch), Payload: stringNames(payload),
	}
	attacker := mover
	if mover != nil {
		root.To = stringOf(mover)
	} else {
		attacker = em.pi
		if side == "right" {
			attacker = em.qi
		}
	}
	crt.Nodes = append(crt.Nodes, root)
	offsets := map[*cert.Certificate]int{}
	seen := map[uint64]bool{}
	for _, ans := range answers {
		if seen[ans.id] {
			continue
		}
		seen[ans.id] = true
		r, err := em.c.LabelledCtx(em.ctx, attacker.proc, ans.proc, em.weak)
		if err != nil {
			return nil, err
		}
		if r.Related || r.Cert == nil {
			return nil, fmt.Errorf("equiv: internal: refuted %s challenge has a related answer %s", kind, stringOf(ans))
		}
		off, ok := offsets[r.Cert]
		if !ok {
			off = len(crt.Nodes)
			offsets[r.Cert] = off
			crt.Nodes = appendShifted(crt.Nodes, r.Cert.Nodes, off)
		}
		crt.Nodes[0].Replies = append(crt.Nodes[0].Replies, cert.Reply{To: stringOf(ans), Next: off})
	}
	return crt, nil
}

// appendShifted appends sub-strategy nodes with their reply indices rebased
// to the enclosing node table.
func appendShifted(dst, src []cert.Strategy, off int) []cert.Strategy {
	for _, n := range src {
		n.Replies = append([]cert.Reply(nil), n.Replies...)
		for i := range n.Replies {
			n.Replies[i].Next += off
		}
		dst = append(dst, n)
	}
	return dst
}

// relMerger unions positive labelled certificates into one relation, keyed by
// printed canonical terms. Pair move tables are deterministic per pair (the
// fixpoint decides membership exactly, so liveness of a candidate does not
// depend on which query explored it), making first-wins dedup sound.
type relMerger struct {
	terms   []string
	termIdx map[string]int
	pairs   [][2]int
	moves   [][]cert.Move
	pairIdx map[[2]int]bool
	seen    map[*cert.Certificate]bool
}

func newRelMerger() relMerger {
	return relMerger{termIdx: map[string]int{}, pairIdx: map[[2]int]bool{}, seen: map[*cert.Certificate]bool{}}
}

func (m *relMerger) term(s string) int {
	if i, ok := m.termIdx[s]; ok {
		return i
	}
	i := len(m.terms)
	m.termIdx[s] = i
	m.terms = append(m.terms, s)
	return i
}

func (m *relMerger) add(sub *cert.Certificate) error {
	if sub == nil || !sub.Related || sub.Relation != cert.RelLabelled {
		return fmt.Errorf("equiv: internal: missing labelled sub-certificate")
	}
	if m.seen[sub] {
		return nil
	}
	m.seen[sub] = true
	remap := make([]int, len(sub.Terms))
	for i, s := range sub.Terms {
		remap[i] = m.term(s)
	}
	for k, pr := range sub.Pairs {
		np := [2]int{remap[pr[0]], remap[pr[1]]}
		if m.pairIdx[np] {
			continue
		}
		m.pairIdx[np] = true
		mvs := make([]cert.Move, len(sub.Moves[k]))
		for j, v := range sub.Moves[k] {
			v.Pair = [2]int{remap[v.Pair[0]], remap[v.Pair[1]]}
			mvs[j] = v
		}
		m.pairs = append(m.pairs, np)
		m.moves = append(m.moves, mvs)
	}
	return nil
}

// ---- congruences ------------------------------------------------------------

// Congruence decides the strong congruence ~c (weak=false) or the weak
// congruence ≈c (weak=true): pσ ~+ qσ (resp. ≈+) for all substitutions σ.
//
// Substitution closure is exact on a finite sufficient set: all fusions
// fn(p,q) → fn(p,q). Substitutions introducing genuinely fresh targets are
// injective renamings of these up to bisimilarity (Lemma 18), so they add no
// discriminating power. The enumeration is n^n in |fn(p,q)| — use
// CongruenceBounded for larger interfaces.
func (c *Checker) Congruence(p, q syntax.Proc, weak bool) (bool, error) {
	return c.CongruenceBounded(p, q, weak, 0)
}

// CongruenceCtx is Congruence honouring ctx (checked per substitution and
// inside each one-step sub-query).
func (c *Checker) CongruenceCtx(ctx context.Context, p, q syntax.Proc, weak bool) (bool, error) {
	return c.CongruenceBoundedCtx(ctx, p, q, weak, 0)
}

// CongruenceBounded is Congruence with a cap on the number of substitutions
// tried (0 means unbounded). When capped, a true verdict means "no tried
// substitution distinguishes them".
func (c *Checker) CongruenceBounded(p, q syntax.Proc, weak bool, maxSubs int) (bool, error) {
	return c.CongruenceBoundedCtx(context.Background(), p, q, weak, maxSubs)
}

// CongruenceBoundedCtx is CongruenceBounded honouring ctx.
func (c *Checker) CongruenceBoundedCtx(ctx context.Context, p, q syntax.Proc, weak bool, maxSubs int) (bool, error) {
	_, ok, err := c.congruence(ctx, p, q, weak, maxSubs, false)
	return ok, err
}

// CongruenceCert decides ~c/≈c with a checkable certificate naming p and q as
// given: one embedded positive one-step certificate per distinct instance
// pair under the fusions of the free names, or the first distinguishing
// substitution with its one-step strategy. Requires Certify.
func (c *Checker) CongruenceCert(p, q syntax.Proc, weak bool) (*cert.Certificate, bool, error) {
	return c.CongruenceBoundedCertCtx(context.Background(), p, q, weak, 0)
}

// CongruenceBoundedCertCtx is CongruenceCert with a substitution cap. A
// positive verdict under truncation returns a nil certificate — "no tried
// substitution distinguishes them" is not checkable evidence for ~c.
func (c *Checker) CongruenceBoundedCertCtx(ctx context.Context, p, q syntax.Proc, weak bool, maxSubs int) (*cert.Certificate, bool, error) {
	if !c.Certify {
		return nil, false, fmt.Errorf("equiv: congruence certification requires the Certify option")
	}
	return c.congruence(ctx, p, q, weak, maxSubs, true)
}

// congruence is the single implementation behind every ~c/≈c entry point.
// The fusions range over the free names of p and q as given, and each is
// applied before interning: Simplify drops matches on distinct free names
// that a fusion would fire (DESIGN decision 4). A fusion whose instance pair
// was already checked is skipped. With certify set, the certificate names
// the printed input terms, which the verifier substitutes into the same way.
func (c *Checker) congruence(ctx context.Context, p, q syntax.Proc, weak bool, maxSubs int, certify bool) (*cert.Certificate, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q)).Sorted()
	subs := names.AllFusions(fn, fn)
	if len(subs) == 0 {
		subs = []names.Subst{{}}
	}
	truncated := maxSubs > 0 && len(subs) > maxSubs
	if truncated {
		subs = subs[:maxSubs]
	}
	header := func(related bool) *cert.Certificate {
		return &cert.Certificate{
			Version: cert.Version, Relation: cert.RelCongruence, Weak: weak,
			Related: related, P: syntax.String(p), Q: syntax.String(q),
		}
	}
	seen := map[[2]uint64]bool{}
	var subCerts []*cert.Certificate
	for _, sub := range subs {
		if err := ctx.Err(); err != nil {
			return nil, false, ErrCanceled{err}
		}
		ps, err := c.intern(syntax.Apply(p, sub))
		if err != nil {
			return nil, false, fmt.Errorf("under substitution %s: %w", sub, err)
		}
		qs, err := c.intern(syntax.Apply(q, sub))
		if err != nil {
			return nil, false, fmt.Errorf("under substitution %s: %w", sub, err)
		}
		if seen[[2]uint64{ps.id, qs.id}] {
			continue
		}
		seen[[2]uint64{ps.id, qs.id}] = true
		var em *osEmit
		if certify {
			em = newOSEmit(c, ctx, weak, ps, qs)
		}
		crt, ok, err := c.oneStep(ctx, ps, qs, weak, em)
		if err != nil {
			return nil, false, fmt.Errorf("under substitution %s: %w", sub, err)
		}
		if !ok {
			if !certify {
				return nil, false, nil
			}
			neg := header(false)
			neg.Sigma = sigmaMap(sub)
			neg.Nodes = crt.Nodes
			return neg, false, nil
		}
		if certify {
			subCerts = append(subCerts, crt)
		}
	}
	if !certify || truncated {
		return nil, true, nil
	}
	pos := header(true)
	pos.Subs = subCerts
	return pos, true, nil
}

func sigmaMap(sub names.Subst) map[string]string {
	out := make(map[string]string, len(sub))
	for k, v := range sub {
		out[string(k)] = string(v)
	}
	return out
}
