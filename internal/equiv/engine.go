package equiv

import (
	"context"
	"fmt"

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
	// Checker's Certify flag is set (nil otherwise). Cached verdicts return
	// the cached certificate, in the orientation of the original query.
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
	// rather than the fixpoint, so its reason is already deterministic.
	staticBad bool
	reason    string
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
	reason   string
	failSide string
	failBarb names.Name
	obs      []obSpec
	err      error
}

type obSpec struct {
	mv    obMove
	cands [][2]*termInfo
}

func (b *built) add(mv obMove, cands [][2]*termInfo) {
	b.obs = append(b.obs, obSpec{mv: mv, cands: cands})
}

// failBarbOn records a static barb failure: side owns a barb on a that the
// other side cannot (weakly) answer.
func (b *built) failBarbOn(side string, a names.Name, format string, args ...any) {
	b.bad = true
	b.failSide, b.failBarb = side, a
	b.reason = fmt.Sprintf(format, args...)
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
		reason := rn.reason
		if !rn.staticBad {
			reason = e.failReason(rn)
		}
		res.Reason = fmt.Sprintf("%s: %s (comparing %s with %s)", sp, reason,
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
	for i := 0; i < len(e.nodes); i++ {
		if err := e.ctx.Err(); err != nil {
			return ErrCanceled{err}
		}
		n := e.nodes[i]
		b := e.buildPair(n.p, n.q)
		if b.err != nil {
			return b.err
		}
		if err := e.merge(n, b); err != nil {
			return err
		}
	}
	return nil
}

// buildPair computes the static checks and matching obligations of one pair.
func (e *engine) buildPair(p, q *termInfo) *built {
	b := &built{}
	var err error
	switch e.sp.kind {
	case relBarbed:
		err = e.buildBarbed(p, q, b)
	case relStep:
		err = e.buildStep(p, q, b)
	default:
		err = e.buildLabelled(p, q, b)
	}
	b.err = err
	return b
}

// merge installs one built pair: statically bad pairs keep their reason,
// obligation candidates are interned to node indices (appending fresh pairs
// to the node list, where the expand loop will reach them in order).
func (e *engine) merge(n *pairNode, b *built) error {
	if b.bad {
		n.bad, n.staticBad, n.reason = true, true, b.reason
		n.failSide, n.failBarb = b.failSide, b.failBarb
		return nil
	}
	for _, ob := range b.obs {
		o := obligation{mv: ob.mv, candidates: make([]int, 0, len(ob.cands))}
		for _, cd := range ob.cands {
			ci, err := e.node(cd[0], cd[1])
			if err != nil {
				return err
			}
			o.candidates = append(o.candidates, ci)
		}
		n.obs = append(n.obs, o)
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

// failReason picks the deterministic explanation for a fixpoint-discarded
// pair: the first obligation (in construction order) with no surviving
// candidate. Worklist processing order marked the pair bad via *some*
// obligation; rescanning keeps Reason independent of scheduling.
func (e *engine) failReason(n *pairNode) string {
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
	return n.reason
}

// ---- barbed bisimulation (Definition 3) -----------------------------------

func (e *engine) buildBarbed(p, q *termInfo, b *built) error {
	// Barb conditions.
	pb, qb := strongBarbs(p), strongBarbs(q)
	if !e.sp.weak {
		if !pb.Equal(qb) {
			side, a := barbWitness(pb, qb)
			b.failBarbOn(side, a, "strong barbs differ on %s: %v vs %v", a, pb, qb)
			return nil
		}
	} else {
		for _, a := range pb.Sorted() {
			ok, err := e.c.weakBarb(q, a)
			if err != nil {
				return err
			}
			if !ok {
				b.failBarbOn("left", a, "right side lacks weak barb on %s", a)
				return nil
			}
		}
		for _, a := range qb.Sorted() {
			ok, err := e.c.weakBarb(p, a)
			if err != nil {
				return err
			}
			if !ok {
				b.failBarbOn("right", a, "left side lacks weak barb on %s", a)
				return nil
			}
		}
	}
	// τ moves.
	pt, err := e.c.tauSucc(p)
	if err != nil {
		return err
	}
	qt, err := e.c.tauSucc(q)
	if err != nil {
		return err
	}
	qMatch, err := e.weakOrStrongTauTargets(q, qt)
	if err != nil {
		return err
	}
	pMatch, err := e.weakOrStrongTauTargets(p, pt)
	if err != nil {
		return err
	}
	for _, ps := range pt {
		var cands [][2]*termInfo
		for _, qs := range qMatch {
			cands = append(cands, [2]*termInfo{ps, qs})
		}
		b.add(obMove{side: "left", kind: "tau", mover: ps}, cands)
	}
	for _, qs := range qt {
		var cands [][2]*termInfo
		for _, ps := range pMatch {
			cands = append(cands, [2]*termInfo{ps, qs})
		}
		b.add(obMove{side: "right", kind: "tau", mover: qs}, cands)
	}
	return nil
}

// weakOrStrongTauTargets returns the states that may answer a τ move: the
// strong τ successors, or the full τ* closure (including staying put) in the
// weak case.
func (e *engine) weakOrStrongTauTargets(ti *termInfo, strong []*termInfo) ([]*termInfo, error) {
	if !e.sp.weak {
		return strong, nil
	}
	return e.c.tauClosure(ti)
}

// ---- step bisimulation (Definition 5) --------------------------------------

func (e *engine) buildStep(p, q *termInfo, b *built) error {
	// ↓φ barbs: subjects of output transitions.
	pb, qb := strongBarbs(p), strongBarbs(q)
	if !e.sp.weak {
		if !pb.Equal(qb) {
			side, a := barbWitness(pb, qb)
			b.failBarbOn(side, a, "step barbs differ on %s: %v vs %v", a, pb, qb)
			return nil
		}
	} else {
		for _, a := range pb.Sorted() {
			ok, err := e.weakStepBarb(q, a)
			if err != nil {
				return err
			}
			if !ok {
				b.failBarbOn("left", a, "right side lacks weak step barb on %s", a)
				return nil
			}
		}
		for _, a := range qb.Sorted() {
			ok, err := e.weakStepBarb(p, a)
			if err != nil {
				return err
			}
			if !ok {
				b.failBarbOn("right", a, "left side lacks weak step barb on %s", a)
				return nil
			}
		}
	}
	// Autonomous moves, label-blind.
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
		var cands [][2]*termInfo
		for _, qs := range qTargets {
			cands = append(cands, [2]*termInfo{ps, qs})
		}
		b.add(obMove{side: "left", kind: "step", mover: ps}, cands)
	}
	for _, qs := range qa {
		var cands [][2]*termInfo
		for _, ps := range pTargets {
			cands = append(cands, [2]*termInfo{ps, qs})
		}
		b.add(obMove{side: "right", kind: "step", mover: qs}, cands)
	}
	return nil
}

// weakStepBarb reports that some (τ ∪ output)*-derivative strongly barbs on a.
func (e *engine) weakStepBarb(ti *termInfo, a names.Name) (bool, error) {
	cl, err := e.c.autonomousClosure(ti)
	if err != nil {
		return false, err
	}
	for _, s := range cl {
		if strongBarbs(s).Contains(a) {
			return true, nil
		}
	}
	return false, nil
}
