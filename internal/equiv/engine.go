package equiv

import (
	"context"
	"fmt"
	"slices"

	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/obs"
)

// ErrCanceled reports that a query was abandoned because its context was
// canceled or its deadline expired; the verdict is inconclusive. It unwraps
// to the context error, so errors.Is(err, context.DeadlineExceeded)
// distinguishes timeouts from exploration-budget exhaustion (ErrBudget).
type ErrCanceled struct{ Cause error }

func (e ErrCanceled) Error() string { return "equiv: query canceled: " + e.Cause.Error() }

// Unwrap exposes the context error for errors.Is/As.
func (e ErrCanceled) Unwrap() error { return e.Cause }

// relKind selects which of the paper's bisimilarities an engine decides.
type relKind int

const (
	relLabelled relKind = iota // Definitions 7/8
	relBarbed                  // Definition 3
	relStep                    // Definition 5
)

type spec struct {
	kind relKind
	weak bool
}

func (s spec) String() string {
	k := map[relKind]string{relLabelled: "labelled", relBarbed: "barbed", relStep: "step"}[s.kind]
	if s.weak {
		return "weak " + k
	}
	return "strong " + k
}

// Result reports an equivalence verdict.
type Result struct {
	// Related is the verdict.
	Related bool
	// Pairs is the number of term pairs explored.
	Pairs int
	// Reason describes the obligation that failed when Related is false.
	Reason string
	// Cert is the checkable certificate of the verdict, emitted when the
	// Checker's Certify flag is set (nil otherwise). Its root is the query's
	// pair, in the order given.
	Cert *cert.Certificate
}

// obMove is the structured identity of an obligation's challenge: which side
// moved, how, and to what — enough to re-derive the challenge independently
// of the engine (certificates) and to name it precisely (Reason).
type obMove struct {
	side    string // "left" | "right"
	kind    string // "tau" | "out" | "react" | "step"
	label   string // canonical output label (kind "out")
	ch      names.Name
	payload []names.Name
	// mover is the challenger's derivative (the target of the move).
	mover *termInfo
}

// describe renders the move as the human-readable failure reason. Reasons
// are derived on demand from the structured move — only the losing
// obligation of a negative verdict ever needs its string, so the hot build
// path never formats one.
func (mv obMove) describe() string {
	switch mv.kind {
	case "tau":
		return fmt.Sprintf("tau move of %s to %s unmatched", mv.side, stringOf(mv.mover))
	case "step":
		return fmt.Sprintf("autonomous step of %s to %s unmatched", mv.side, stringOf(mv.mover))
	case "out":
		return fmt.Sprintf("output %s of %s from %s unmatched", mv.label, mv.side, stringOf(mv.mover))
	default: // "react"
		return fmt.Sprintf("reaction %s?(%s) of %s to %s unmatched",
			mv.ch, joinNames(mv.payload), mv.side, stringOf(mv.mover))
	}
}

// obligation is one matching requirement of a pair: at least one candidate
// successor pair must remain in the relation.
type obligation struct {
	mv         obMove
	candidates []int
}

type pairNode struct {
	p, q *termInfo
	obs  []obligation
	bad  bool
	// staticBad records that the pair failed a build-time check (barbs)
	// rather than the fixpoint; barbReason renders it on demand.
	staticBad bool
	// failSide/failBarb identify the static barb failure structurally (the
	// side owning the unmatched barb, and its channel).
	failSide string
	failBarb names.Name
}

// built is the result of constructing one pair's obligations, before merge
// numbers its candidate pairs. Successor orders come from transition order
// and key-sorted closures, never from interning order.
type built struct {
	bad      bool
	failSide string
	failBarb names.Name
	obs      []obSpec
}

// obSpec is one obligation before merge: the challenge, and the defender's
// answers. Its candidate pairs are (mover, answer) when the left side moved
// and (answer, mover) when the right side did.
type obSpec struct {
	mv      obMove
	answers []*termInfo
}

// add records an obligation; answers may be a shared memo slice, since merge
// only reads it.
func (b *built) add(mv obMove, answers []*termInfo) {
	b.obs = append(b.obs, obSpec{mv: mv, answers: answers})
}

// failBarbOn records a static barb failure: side owns a barb on a that the
// other side cannot (weakly) answer.
func (b *built) failBarbOn(side string, a names.Name) {
	b.bad = true
	b.failSide, b.failBarb = side, a
}

type engine struct {
	c     *Checker
	ctx   context.Context
	sp    spec
	nodes []*pairNode
	index map[[2]uint64]int

	// Observability: nil when the checker has no tracer; every use is a
	// nil-safe no-op then. Counters are resolved once per run so the hot
	// loops touch no map.
	tr     *obs.Tracer
	cPairs *obs.Counter
}

func (c *Checker) run(ctx context.Context, pi, qi *termInfo, sp spec) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	tr := c.Obs
	e := &engine{
		c: c, ctx: ctx, sp: sp, index: map[[2]uint64]int{},
		tr:     tr,
		cPairs: tr.Counter("equiv.pairs_expanded"),
	}
	run := tr.Span("equiv.run")
	defer run.End()
	root, err := e.node(pi, qi)
	if err != nil {
		return Result{}, err
	}
	if err := e.explore(run); err != nil {
		return Result{}, err
	}
	fix := run.Child("equiv.fixpoint")
	e.fixpoint()
	fix.End()
	rn := e.nodes[root]
	res := Result{Related: !rn.bad, Pairs: len(e.nodes)}
	if rn.bad {
		res.Reason = fmt.Sprintf("%s: %s (comparing %s with %s)", sp, e.failReason(rn),
			stringOf(rn.p), stringOf(rn.q))
	}
	if c.Certify {
		res.Cert = e.certificate(root)
	}
	return res, nil
}

// explore closes the pair space: it processes nodes strictly in index
// order, building each pair's obligations and appending fresh candidate
// pairs to the node list, so node numbering, pair counts, budget errors and
// Reasons depend only on the pair graph. Context cancellation is observed
// between pairs, so a deadline aborts the query promptly even on unbounded
// pair spaces.
func (e *engine) explore(run *obs.Span) error {
	span := run.Child("equiv.explore")
	defer span.End()
	ex := span.Child("equiv.expand")
	defer ex.End()
	var b built
	for i := 0; i < len(e.nodes); i++ {
		if err := e.ctx.Err(); err != nil {
			return ErrCanceled{err}
		}
		n := e.nodes[i]
		b = built{obs: b.obs[:0]}
		if err := e.buildPair(n.p, n.q, &b); err != nil {
			return err
		}
		if err := e.merge(n, &b); err != nil {
			return err
		}
	}
	return nil
}

// buildPair computes the static checks and matching obligations of one pair.
func (e *engine) buildPair(p, q *termInfo, b *built) error {
	switch e.sp.kind {
	case relBarbed:
		return e.buildBarbed(p, q, b)
	case relStep:
		return e.buildStep(p, q, b)
	default:
		return e.buildLabelled(p, q, b)
	}
}

// merge installs one built pair: statically bad pairs keep their barb
// failure, obligation candidates are interned to node indices (appending
// fresh pairs to the node list, where the expand loop will reach them in
// order).
func (e *engine) merge(n *pairNode, b *built) error {
	if b.bad {
		n.bad, n.staticBad = true, true
		n.failSide, n.failBarb = b.failSide, b.failBarb
		return nil
	}
	n.obs = make([]obligation, len(b.obs))
	for i, ob := range b.obs {
		o := obligation{mv: ob.mv, candidates: make([]int, len(ob.answers))}
		for j, ans := range ob.answers {
			p, q := ob.mv.mover, ans
			if ob.mv.side == "right" {
				p, q = ans, ob.mv.mover
			}
			ci, err := e.node(p, q)
			if err != nil {
				return err
			}
			o.candidates[j] = ci
		}
		n.obs[i] = o
	}
	return nil
}

// node interns the ordered pair (p,q) by store IDs.
func (e *engine) node(p, q *termInfo) (int, error) {
	k := [2]uint64{p.id, q.id}
	if i, ok := e.index[k]; ok {
		return i, nil
	}
	if len(e.nodes) >= e.c.maxPairs() {
		return 0, ErrBudget{"pair space"}
	}
	i := len(e.nodes)
	e.nodes = append(e.nodes, &pairNode{p: p, q: q})
	e.index[k] = i
	e.cPairs.Add(1)
	return i, nil
}

// fixpoint computes the greatest fixpoint by worklist over reverse
// dependency edges (candidate → obligations it supports): when a pair dies,
// only the obligations actually depending on it are revisited, so the sweep
// is O(total candidate edges) instead of O(rescans × relation size).
func (e *engine) fixpoint() {
	type dep struct{ node, ob int32 }
	rev := make([][]dep, len(e.nodes))
	alive := make([][]int32, len(e.nodes))
	var work []int
	for i, n := range e.nodes {
		if n.bad {
			work = append(work, i)
			continue
		}
		alive[i] = make([]int32, len(n.obs))
		for j, ob := range n.obs {
			alive[i][j] = int32(len(ob.candidates))
			if len(ob.candidates) == 0 {
				if !n.bad {
					n.bad = true
					work = append(work, i)
				}
				continue
			}
			for _, ci := range ob.candidates {
				rev[ci] = append(rev[ci], dep{int32(i), int32(j)})
			}
		}
	}
	cPops := e.tr.Counter("equiv.worklist_pops")
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		cPops.Add(1)
		for _, d := range rev[i] {
			dn := e.nodes[d.node]
			if dn.bad {
				continue
			}
			alive[d.node][d.ob]--
			if alive[d.node][d.ob] == 0 {
				dn.bad = true
				work = append(work, int(d.node))
			}
		}
	}
}

// failReason picks the deterministic explanation for a dead pair: its barb
// failure, or for a fixpoint-discarded pair the first obligation (in
// construction order) with no surviving candidate. Worklist processing order
// marked the pair bad via *some* obligation; rescanning keeps Reason
// independent of scheduling.
func (e *engine) failReason(n *pairNode) string {
	if n.staticBad {
		return e.barbReason(n)
	}
	for _, ob := range n.obs {
		ok := false
		for _, ci := range ob.candidates {
			if !e.nodes[ci].bad {
				ok = true
				break
			}
		}
		if !ok {
			return ob.mv.describe()
		}
	}
	return "" // unreachable: a pair the fixpoint killed has a dead obligation
}

// barbReason renders a static barb failure. The build path records only the
// side and the barb, as the certificate does; only the root's Reason is ever
// read, so the sets and the sentence are formatted here, once per query.
func (e *engine) barbReason(n *pairNode) string {
	if !e.sp.weak {
		what := "strong barbs"
		if e.sp.kind == relStep {
			what = "step barbs"
		}
		return fmt.Sprintf("%s differ on %s: %v vs %v", what, n.failBarb,
			names.NewSet(n.p.barbs...), names.NewSet(n.q.barbs...))
	}
	what := "weak barb"
	if e.sp.kind == relStep {
		what = "weak step barb"
	}
	lacking := "right"
	if n.failSide == "right" {
		lacking = "left"
	}
	return fmt.Sprintf("%s side lacks %s on %s", lacking, what, n.failBarb)
}

// barbsDiffer applies the static barb check of Definitions 3 and 5 and
// records a mismatch in b: strongly, both sides barb on the same channels;
// weakly, every barb of one side is a weak barb of the other.
func (e *engine) barbsDiffer(p, q *termInfo, b *built) (bool, error) {
	if !e.sp.weak {
		if slices.Equal(p.barbs, q.barbs) {
			return false, nil
		}
		b.failBarbOn(barbWitness(p.barbs, q.barbs))
		return true, nil
	}
	lacks := func(owner, other *termInfo, side string) (bool, error) {
		for _, a := range owner.barbs {
			ok, err := e.weakBarb(other, a)
			if err != nil {
				return false, err
			}
			if !ok {
				b.failBarbOn(side, a)
				return true, nil
			}
		}
		return false, nil
	}
	if bad, err := lacks(p, q, "left"); bad || err != nil {
		return bad, err
	}
	return lacks(q, p, "right")
}

// weakBarb reports ti ⇓a: some τ*-derivative of ti, or for step
// bisimilarity some (τ ∪ output)*-derivative, has a strong barb on a.
func (e *engine) weakBarb(ti *termInfo, a names.Name) (bool, error) {
	closure := e.c.tauClosure
	if e.sp.kind == relStep {
		closure = e.c.autonomousClosure
	}
	cl, err := closure(ti)
	if err != nil {
		return false, err
	}
	for _, s := range cl {
		if slices.Contains(s.barbs, a) {
			return true, nil
		}
	}
	return false, nil
}

// tauObligations adds the τ clause shared by barbed and labelled
// bisimilarity: every τ move of one side is answered by a τ move of the
// other, or in the weak case by any state of its τ* closure.
func (e *engine) tauObligations(p, q *termInfo, b *built) error {
	pt, err := e.c.tauSucc(p)
	if err != nil {
		return err
	}
	qt, err := e.c.tauSucc(q)
	if err != nil {
		return err
	}
	qMatch, pMatch := qt, pt
	if e.sp.weak {
		if qMatch, err = e.c.tauClosure(q); err != nil {
			return err
		}
		if pMatch, err = e.c.tauClosure(p); err != nil {
			return err
		}
	}
	for _, ps := range pt {
		b.add(obMove{side: "left", kind: "tau", mover: ps}, qMatch)
	}
	for _, qs := range qt {
		b.add(obMove{side: "right", kind: "tau", mover: qs}, pMatch)
	}
	return nil
}

// ---- barbed bisimulation (Definition 3) -----------------------------------

func (e *engine) buildBarbed(p, q *termInfo, b *built) error {
	if bad, err := e.barbsDiffer(p, q, b); bad || err != nil {
		return err
	}
	return e.tauObligations(p, q, b)
}

// ---- step bisimulation (Definition 5) --------------------------------------

// buildStep checks the ↓φ barbs (subjects of output transitions), then
// matches autonomous moves label-blind.
func (e *engine) buildStep(p, q *termInfo, b *built) error {
	if bad, err := e.barbsDiffer(p, q, b); bad || err != nil {
		return err
	}
	pa, err := e.c.autonomousSucc(p)
	if err != nil {
		return err
	}
	qa, err := e.c.autonomousSucc(q)
	if err != nil {
		return err
	}
	qTargets, pTargets := qa, pa
	if e.sp.weak {
		if qTargets, err = e.c.autonomousClosure(q); err != nil {
			return err
		}
		if pTargets, err = e.c.autonomousClosure(p); err != nil {
			return err
		}
	}
	for _, ps := range pa {
		b.add(obMove{side: "left", kind: "step", mover: ps}, qTargets)
	}
	for _, qs := range qa {
		b.add(obMove{side: "right", kind: "step", mover: qs}, pTargets)
	}
	return nil
}
