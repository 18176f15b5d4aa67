package equiv

import (
	"context"
	"errors"
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/syntax"
)

// oneStep decides the auxiliary one-step relation ~+ (Definition 11) or ≈+
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
// (resp. ≈c) — see congruence.
func (c *Checker) oneStep(ctx context.Context, q Query) (Result, error) {
	pi, qi, err := c.internPair(q.P, q.Q)
	if err != nil {
		return Result{}, err
	}
	oq := c.newOneStepQuery(ctx, q.Weak)
	var em *osEmit
	if c.Certify {
		em = newOSEmit(oq, pi, qi)
	}
	crt, ok, err := oq.oneStep(pi, qi, em)
	if err != nil {
		return Result{}, err
	}
	return Result{Related: ok, Cert: crt}, nil
}

// oneStepQuery is one ~+ or ~c query over the labelled engine. Its strict
// matches ask ~ (or ≈) of successor pairs, and the same pair recurs across
// challenges, across the two directions and, for ~c, across fusion
// instances: verdicts holds the labelled sub-verdicts decided so far, each
// under both orientations (every relation is symmetric). A repeated
// sub-question returns the same Result, so a certifying query merges each
// sub-certificate once. The table lives only as long as the query.
type oneStepQuery struct {
	c        *Checker
	ctx      context.Context
	weak     bool
	verdicts map[[2]uint64]Result
}

func (c *Checker) newOneStepQuery(ctx context.Context, weak bool) *oneStepQuery {
	return &oneStepQuery{c: c, ctx: ctx, weak: weak, verdicts: map[[2]uint64]Result{}}
}

// labelled decides p ~ q (p ≈ q when weak) once per query: the engine runs
// on the interned terms, and a repeat in either orientation is answered
// from the table.
func (oq *oneStepQuery) labelled(p, q *termInfo) (Result, error) {
	if r, ok := oq.verdicts[[2]uint64{p.id, q.id}]; ok {
		oq.c.Obs.Count("equiv.verdict_hits", 1)
		return r, nil
	}
	oq.c.Obs.Count("equiv.verdict_misses", 1)
	r, err := oq.c.run(oq.ctx, p, q, spec{cert.RelLabelled, oq.weak})
	if err != nil {
		return r, err
	}
	oq.verdicts[[2]uint64{p.id, q.id}] = r
	oq.verdicts[[2]uint64{q.id, p.id}] = r
	return r, nil
}

// oneStep decides one interned pair: em == nil runs verdict-only, otherwise
// every discharged strict challenge is recorded (top move + merged labelled
// relation) and the first failing one becomes the negative certificate.
func (oq *oneStepQuery) oneStep(pi, qi *termInfo, em *osEmit) (*cert.Certificate, bool, error) {
	c := oq.c
	// Discard clause. Strong: the discard move a: of one side must be
	// matched by a discard of the other, with successors (the processes
	// themselves) related — which makes the discard sets over the shared
	// free names coincide. Weak (clause 4 of Definition 15): a discard of
	// one side must be weakly available on the other (after τ*), with the
	// resting state related to the still-discarding side.
	chans := freeUnion(pi, qi).Sorted()
	for _, a := range chans {
		if err := oq.ctx.Err(); err != nil {
			return nil, false, ErrCanceled{err}
		}
		dp, err := c.store.discardsOn(pi, a)
		if err != nil {
			return nil, false, err
		}
		dq, err := c.store.discardsOn(qi, a)
		if err != nil {
			return nil, false, err
		}
		if !oq.weak {
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
			crt, ok, err := oq.weakDiscardMatch(pi, qi, a, "left", em)
			if err != nil || !ok {
				return crt, false, err
			}
		}
		if dq {
			crt, ok, err := oq.weakDiscardMatch(qi, pi, a, "right", em)
			if err != nil || !ok {
				return crt, false, err
			}
		}
	}
	if crt, ok, err := oq.oneStepDirected(pi, qi, "left", em); err != nil || !ok {
		return crt, ok, err
	}
	if crt, ok, err := oq.oneStepDirected(qi, pi, "right", em); err != nil || !ok {
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
func (oq *oneStepQuery) weakDiscardMatch(discarder, other *termInfo, a names.Name, side string, em *osEmit) (*cert.Certificate, bool, error) {
	cl, err := oq.c.closure(other, kindTau)
	if err != nil {
		return nil, false, err
	}
	var answers []*termInfo
	for _, s := range cl {
		d, err := oq.c.store.discardsOn(s, a)
		if err != nil {
			return nil, false, err
		}
		if d {
			answers = append(answers, s)
		}
	}
	for _, s := range answers {
		r, err := oq.labelled(discarder, s)
		if err != nil {
			return nil, false, err
		}
		if r.Related {
			if em != nil {
				if err := em.rel.add(r.Cert); err != nil {
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

// errUnmatched stops a walk over outputs, payloads or fusions at the first
// mover move no answer matches, or the first fusion whose instances are
// not one-step related.
var errUnmatched = errors.New("equiv: unmatched one-step move")

// oneStepDirected checks the mover→answerer half of Definitions 11/15 for
// τ, output and input moves. side names the mover ("left" = pi moved).
func (oq *oneStepQuery) oneStepDirected(mover, answerer *termInfo, side string, em *osEmit) (*cert.Certificate, bool, error) {
	c := oq.c
	avoid := freeUnion(mover, answerer)

	// τ moves. In the weak case a τ of the mover must be answered by at
	// least one τ of the answerer (τ·τ*, as in observational congruence):
	// allowing the empty answer would let τ.p ≈+ p, which + contexts
	// distinguish, contradicting Theorem 4 (≈c is a congruence).
	mt, err := c.store.succ(mover, kindTau)
	if err != nil {
		return nil, false, err
	}
	var tauTargets []*termInfo
	if oq.weak {
		first, err := c.store.succ(answerer, kindTau)
		if err != nil {
			return nil, false, err
		}
		seen := map[uint64]*termInfo{}
		for _, f := range first {
			cl, err := c.closure(f, kindTau)
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
		if tauTargets, err = c.store.succ(answerer, kindTau); err != nil {
			return nil, false, err
		}
	}
	for _, ms := range mt {
		crt, ok, err := oq.strictMatch(em, "tau", side, "", "", nil, ms, tauTargets)
		if err != nil || !ok {
			return crt, false, err
		}
	}

	// Output moves, matched on identical canonical labels. Each mover
	// target is interned right before its strict match.
	answers, err := c.outputAnswers(answerer, avoid, oq.weak)
	if err != nil {
		return nil, false, err
	}
	var refuted *cert.Certificate
	err = c.store.eachOutput(mover, avoid, func(o outTarget) error {
		crt, ok, err := oq.strictMatch(em, "out", side, o.label, "", nil, o.tgt, answers[o.label])
		if err == nil && !ok {
			refuted, err = crt, errUnmatched
		}
		return err
	})
	if errors.Is(err, errUnmatched) {
		return refuted, false, nil
	}
	if err != nil {
		return nil, false, err
	}

	// Input moves: strictly input-by-input on the same ground label.
	mshapes := make([]shape, 0)
	for s := range inputShapes(mover) {
		mshapes = append(mshapes, s)
	}
	sortShapes(mshapes)
	for _, s := range mshapes {
		err := names.EachTuple(names.Universe(avoid, s.arity), s.arity, func(payload []names.Name) error {
			if err := oq.ctx.Err(); err != nil {
				return ErrCanceled{err}
			}
			receive := func(ti *termInfo) ([]*termInfo, error) { return c.store.receptions(ti, s.ch, payload) }
			mIns, err := receive(mover)
			if err != nil || len(mIns) == 0 {
				return err
			}
			aIns, err := c.derivatives(answerer, oq.weak, receive)
			if err != nil {
				return err
			}
			for _, md := range mIns {
				crt, ok, err := oq.strictMatch(em, "in", side, "", s.ch, payload, md, aIns)
				if err == nil && !ok {
					refuted, err = crt, errUnmatched
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		if errors.Is(err, errUnmatched) {
			return refuted, false, nil
		}
		if err != nil {
			return nil, false, err
		}
	}
	return nil, true, nil
}

// strictMatch discharges one strict challenge: the mover's derivative must be
// labelled-bisimilar to some answer. With an emitter, success merges the
// answer's labelled relation and failure assembles the negative
// certificate.
func (oq *oneStepQuery) strictMatch(em *osEmit, kind, side, label string,
	ch names.Name, payload []names.Name, mover *termInfo, answers []*termInfo) (*cert.Certificate, bool, error) {
	for _, ans := range answers {
		r, err := oq.labelled(mover, ans)
		if err != nil {
			return nil, false, err
		}
		if r.Related {
			if em != nil {
				if err := em.rel.add(r.Cert); err != nil {
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

// ---- one-step certificate emission -----------------------------------------

// osEmit accumulates one-step certificate evidence: the union of the
// labelled sub-certificates that answer the root's strict challenges and,
// when weak, its discard clause, as one merged relation.
type osEmit struct {
	oq     *oneStepQuery
	pi, qi *termInfo
	rel    relMerger
}

func newOSEmit(oq *oneStepQuery, pi, qi *termInfo) *osEmit {
	return &osEmit{oq: oq, pi: pi, qi: qi, rel: newRelMerger()}
}

func (em *osEmit) header(related bool) *cert.Certificate {
	return &cert.Certificate{
		Version:  cert.Version,
		Relation: cert.RelOneStep,
		Weak:     em.oq.weak,
		Related:  related,
		P:        stringOf(em.pi),
		Q:        stringOf(em.qi),
	}
}

func (em *osEmit) positive() *cert.Certificate {
	crt := em.header(true)
	crt.Terms, crt.Pairs = em.rel.terms, em.rel.pairs
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
		r, err := em.oq.labelled(attacker, ans)
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
// printed canonical terms, each pair once.
type relMerger struct {
	terms   []string
	termIdx map[string]int
	pairs   [][2]int
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
	for _, pr := range sub.Pairs {
		np := [2]int{remap[pr[0]], remap[pr[1]]}
		if !m.pairIdx[np] {
			m.pairIdx[np] = true
			m.pairs = append(m.pairs, np)
		}
	}
	return nil
}

// ---- congruences ------------------------------------------------------------

// congruence decides the strong congruence ~c or the weak congruence ≈c:
// pσ ~+ qσ (resp. ≈+) for all substitutions σ.
//
// Substitution closure is exact on a finite sufficient set: all fusions
// fn(p,q) → fn(p,q). Substitutions introducing genuinely fresh targets are
// injective renamings of these up to bisimilarity (Lemma 18), so they add no
// discriminating power. The n^n fusions of n = |fn(p,q)| names are walked
// one at a time, the context checked at each; the walk stops after
// q.MaxSubs of them, and the verdict is truncated only if one more exists.
// The fusions range over the free names of p and q as given, and each is
// applied before interning: Simplify drops matches on distinct free names
// that a fusion would fire (DESIGN decision 4). A fusion whose instance pair
// was already checked is skipped. A certificate names the printed input
// terms, which the verifier substitutes into the same way: one embedded
// positive one-step certificate per distinct instance pair, or the first
// distinguishing substitution with its one-step strategy. A positive verdict
// under truncation carries none — "no tried substitution distinguishes
// them" is not checkable evidence for ~c.
func (c *Checker) congruence(ctx context.Context, q Query) (Result, error) {
	oq := c.newOneStepQuery(ctx, q.Weak)
	fn := syntax.FreeNames(q.P).AddAll(syntax.FreeNames(q.Q)).Sorted()
	header := func(related bool) *cert.Certificate {
		return &cert.Certificate{
			Version: cert.Version, Relation: cert.RelCongruence, Weak: q.Weak,
			Related: related, P: syntax.String(q.P), Q: syntax.String(q.Q),
		}
	}
	seen := map[[2]uint64]bool{}
	var subCerts []*cert.Certificate
	var neg *cert.Certificate
	tried := 0
	// A fusion is a tuple of images of fn. Its identity entries stay in
	// the substitution: a negative certificate's sigma prints them.
	err := names.EachTuple(fn, len(fn), func(img []names.Name) error {
		if q.MaxSubs > 0 && tried == q.MaxSubs {
			return errTruncated
		}
		tried++
		if err := oq.ctx.Err(); err != nil {
			return ErrCanceled{err}
		}
		sub := names.FromSlices(fn, img)
		ps, qs, err := c.internPair(syntax.Apply(q.P, sub), syntax.Apply(q.Q, sub))
		if err != nil {
			return fmt.Errorf("under substitution %s: %w", sub, err)
		}
		if seen[[2]uint64{ps.id, qs.id}] {
			return nil
		}
		seen[[2]uint64{ps.id, qs.id}] = true
		var em *osEmit
		if c.Certify {
			em = newOSEmit(oq, ps, qs)
		}
		crt, ok, err := oq.oneStep(ps, qs, em)
		if err != nil {
			return fmt.Errorf("under substitution %s: %w", sub, err)
		}
		if !ok {
			if em != nil {
				neg = header(false)
				neg.Sigma = sigmaMap(sub)
				neg.Nodes = crt.Nodes
			}
			return errUnmatched
		}
		if em != nil {
			subCerts = append(subCerts, crt)
		}
		return nil
	})
	switch {
	case errors.Is(err, errUnmatched):
		return Result{Cert: neg}, nil
	case errors.Is(err, errTruncated):
		return Result{Related: true}, nil
	case err != nil:
		return Result{}, err
	case !c.Certify:
		return Result{Related: true}, nil
	}
	pos := header(true)
	pos.Subs = subCerts
	return Result{Related: true, Cert: pos}, nil
}

// errTruncated stops the fusion walk once q.MaxSubs fusions were tried and
// one more exists.
var errTruncated = errors.New("equiv: fusion budget reached")

func sigmaMap(sub names.Subst) map[string]string {
	out := make(map[string]string, len(sub))
	for k, v := range sub {
		out[string(k)] = string(v)
	}
	return out
}
