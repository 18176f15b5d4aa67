package equiv

import (
	"context"
	"fmt"
	"math"
	"math/bits"
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

// spec selects which of the paper's bisimilarities an engine decides: rel
// is cert.RelLabelled, cert.RelBarbed or cert.RelStep.
type spec struct {
	rel  string
	weak bool
}

// moves is the kind of move the game matches: autonomous moves for step
// bisimilarity, and τ moves for barbed bisimilarity and labelled
// bisimilarity's τ clause.
func (s spec) moves() moveKind {
	if s.rel == cert.RelStep {
		return kindStep
	}
	return kindTau
}

func (s spec) String() string {
	if s.weak {
		return "weak " + s.rel
	}
	return "strong " + s.rel
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

// moveSide names the side of a pair whose move an obligation challenges.
type moveSide uint8

const (
	sideLeft moveSide = iota
	sideRight
)

func (s moveSide) String() string {
	if s == sideRight {
		return "right"
	}
	return "left"
}

// moveKind names how the challenger moved. kindTau and kindStep come
// first: they also index the store's per-term successor and closure memos.
type moveKind uint8

const (
	kindTau   moveKind = iota // a τ move
	kindStep                  // an autonomous move (τ or output), matched label-blind
	kindOut                   // an output, matched on its canonical label
	kindReact                 // a reception or discard a(c̃)?
)

func (k moveKind) String() string { return [...]string{"tau", "step", "out", "react"}[k] }

// obMove is the structured identity of an obligation's challenge: which side
// moved, how, and to what — enough to re-derive the challenge independently
// of the engine (certificates) and to name it precisely (Reason).
type obMove struct {
	side    moveSide
	kind    moveKind
	label   string // canonical output label (kindOut)
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
	case kindTau:
		return fmt.Sprintf("tau move of %s to %s unmatched", mv.side, stringOf(mv.mover))
	case kindStep:
		return fmt.Sprintf("autonomous step of %s to %s unmatched", mv.side, stringOf(mv.mover))
	case kindOut:
		return fmt.Sprintf("output %s of %s from %s unmatched", mv.label, mv.side, stringOf(mv.mover))
	default: // kindReact
		return fmt.Sprintf("reaction %s?(%s) of %s to %s unmatched",
			mv.ch, joinNames(mv.payload), mv.side, stringOf(mv.mover))
	}
}

// pairNode is one pair of the graph.
type pairNode struct {
	p, q *termInfo
	// obLo, obHi delimit the pair's obligations in engine.obs.
	obLo, obHi int32
	// next links the pair index's bucket chain: the next node in this
	// node's bucket, or -1 at its end.
	next int32
	// failBarb identifies a static barb failure structurally: the index,
	// in the barbs of the side failSide, of the barb the other side cannot
	// (weakly) answer.
	failBarb int32
	bad      bool
	// staticBad records that the pair failed a build-time check (barbs)
	// rather than the fixpoint; barbReason renders it on demand.
	staticBad bool
	failSide  moveSide
}

// barb is the channel of n's static barb failure.
func (n *pairNode) barb() names.Name {
	owner := n.p
	if n.failSide == sideRight {
		owner = n.q
	}
	return owner.barbs[n.failBarb]
}

// obligation is one matching requirement of a pair: at least one of its
// candidate pairs, engine.cands[lo:hi], must remain in the relation.
type obligation struct {
	mover  *termInfo
	lo, hi int32
	// label indexes engine.labels for an output or reaction move, else -1.
	label int32
	side  moveSide
	kind  moveKind
}

// moveLabel is what an output (label) or reaction (ch, payload) move
// carries beyond its side, kind and mover.
type moveLabel struct {
	label   string
	ch      names.Name
	payload []names.Name
}

// built is the result of constructing one pair's obligations, before merge
// numbers its candidate pairs. Successor orders come from transition order
// and key-sorted closures, never from interning order.
type built struct {
	bad      bool
	failSide moveSide
	failBarb int32
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

// clause records the obligations of one matching clause, whose moves are
// like mv: each move of the left side, to a mover in pm, is answered by
// qAns, and each move of the right side, to a mover in qm, by pAns.
func (b *built) clause(mv obMove, pm, qm, qAns, pAns []*termInfo) {
	mv.side = sideLeft
	for _, m := range pm {
		mv.mover = m
		b.add(mv, qAns)
	}
	mv.side = sideRight
	for _, m := range qm {
		mv.mover = m
		b.add(mv, pAns)
	}
}

// failBarbOn records a static barb failure: side owns barb i, which the
// other side cannot (weakly) answer.
func (b *built) failBarbOn(side moveSide, i int) {
	b.bad = true
	b.failSide, b.failBarb = side, int32(i)
}

// engine decides one query. It owns the query's pair graph as append-only
// arrays: the pairs in nodes, their obligations in obs and the
// obligations' candidate pairs in cands, each pair's obligations and each
// obligation's candidates a contiguous range, in discovery order.
type engine struct {
	c      *Checker
	ctx    context.Context
	sp     spec
	nodes  segs[pairNode]
	obs    segs[obligation]
	labels segs[moveLabel]
	cands  segs[int32]
	// heads is the pair index: heads[h] is the first node of bucket h, or
	// -1, and the nodes of one bucket chain through pairNode.next. It
	// doubles when the nodes reach its length; indexBits is log2 of it.
	heads     []int32
	indexBits uint

	// Observability: nil when the checker has no tracer; every use is a
	// nil-safe no-op then. Counters are resolved once per run so the hot
	// loops touch no map.
	tr     *obs.Tracer
	cPairs *obs.Counter
}

func (c *Checker) run(ctx context.Context, pi, qi *termInfo, sp spec) (Result, error) {
	tr := c.Obs
	e := &engine{
		c: c, ctx: ctx, sp: sp,
		tr:     tr,
		cPairs: tr.Counter("equiv.pairs_expanded"),
	}
	e.growIndex()
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
	rn := e.nodes.at(root)
	res := Result{Related: !rn.bad, Pairs: e.nodes.len()}
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
	for i := int32(0); int(i) < e.nodes.len(); i++ {
		if err := e.ctx.Err(); err != nil {
			return ErrCanceled{err}
		}
		b = built{obs: b.obs[:0]}
		n := e.nodes.at(i)
		if err := e.buildPair(n.p, n.q, &b); err != nil {
			return err
		}
		if err := e.merge(n, &b); err != nil {
			return err
		}
	}
	return nil
}

// buildPair computes the static checks and matching obligations of one
// pair. Barbed and step bisimilarity (Definitions 3 and 5) differ only in
// the moves they match: each checks the barbs, then matches the moves of
// its kind.
func (e *engine) buildPair(p, q *termInfo, b *built) error {
	if e.sp.rel == cert.RelLabelled {
		return e.buildLabelled(p, q, b)
	}
	if bad, err := e.barbsDiffer(p, q, b); bad || err != nil {
		return err
	}
	return e.moveClause(p, q, e.sp.moves(), b)
}

// merge installs built pair n: a statically bad pair keeps its barb
// failure; otherwise its obligations are appended to e.obs and their
// candidates, interned to node indices, to e.cands (fresh pairs go to the
// end of the node list, where the expand loop will reach them in order).
func (e *engine) merge(n *pairNode, b *built) error {
	if b.bad {
		n.bad, n.staticBad = true, true
		n.failSide, n.failBarb = b.failSide, b.failBarb
		return nil
	}
	answers := 0
	for _, ob := range b.obs {
		answers += len(ob.answers)
	}
	if e.obs.len()+len(b.obs) > math.MaxInt32 || e.cands.len()+answers > math.MaxInt32 {
		return ErrBudget{"pair graph"}
	}
	lo := int32(e.obs.len())
	for _, ob := range b.obs {
		mv := ob.mv
		o := obligation{mover: mv.mover, lo: int32(e.cands.len()), label: -1, side: mv.side, kind: mv.kind}
		if mv.kind == kindOut || mv.kind == kindReact {
			o.label = e.labels.add(moveLabel{mv.label, mv.ch, mv.payload})
		}
		for _, ans := range ob.answers {
			p, q := mv.mover, ans
			if mv.side == sideRight {
				p, q = ans, mv.mover
			}
			ci, err := e.node(p, q)
			if err != nil {
				return err
			}
			e.cands.add(ci)
		}
		o.hi = int32(e.cands.len())
		e.obs.add(o)
	}
	n.obLo, n.obHi = lo, int32(e.obs.len())
	return nil
}

// node interns the ordered pair (p,q): it walks the chain of the pair's
// bucket, and appends a new pair at the head of that chain.
func (e *engine) node(p, q *termInfo) (int32, error) {
	h := e.bucket(p, q)
	for i := e.heads[h]; i >= 0; {
		n := e.nodes.at(i)
		if n.p == p && n.q == q {
			return i, nil
		}
		i = n.next
	}
	if e.nodes.len() >= e.c.maxPairs() {
		return 0, ErrBudget{"pair space"}
	}
	i := e.nodes.add(pairNode{p: p, q: q, next: e.heads[h]})
	e.heads[h] = i
	e.cPairs.Add(1)
	if e.nodes.len() >= len(e.heads) {
		e.growIndex()
	}
	return i, nil
}

// bucket hashes a pair's two store ids to a bucket of the pair index.
func (e *engine) bucket(p, q *termInfo) uint64 {
	return (((p.id * 0x9e3779b97f4a7c15) ^ q.id) * 0xbf58476d1ce4e5b9) >> (64 - e.indexBits)
}

// growIndex doubles the pair index (to segFirst buckets when it has none)
// and relinks every node into the new buckets. Only the bucket heads are
// allocated: the chains live in the nodes, which do not move.
func (e *engine) growIndex() {
	if e.heads == nil {
		e.indexBits = segFirstBits
	} else {
		e.indexBits++
	}
	e.heads = make([]int32, 1<<e.indexBits)
	for h := range e.heads {
		e.heads[h] = -1
	}
	for i := int32(0); int(i) < e.nodes.len(); i++ {
		n := e.nodes.at(i)
		h := e.bucket(n.p, n.q)
		n.next, e.heads[h] = e.heads[h], i
	}
}

// Segment sizes of the pair graph's arrays: the first holds segFirst
// elements, each next one twice as many up to segMax, and every one after
// that segMax. A query of a few dozen pairs stays in its first segments.
const (
	segFirstBits = 4
	segMaxBits   = 16
	segFirst     = 1 << segFirstBits
	segMax       = 1 << segMaxBits
	// segDoubling is the number of doubling segments, and segDoublingEnd
	// the index just past them plus segFirst.
	segDoubling    = segMaxBits - segFirstBits + 1
	segDoublingEnd = segMax << 1
)

// segs is an append-only array held in segments. Appending past the last
// segment allocates one more and copies nothing, so an element never
// moves: a pointer from at stays valid while the array grows.
type segs[E any] struct {
	s    [][]E // s[k] is segment k, at its full size
	n    int   // elements appended
	tail []E   // the unused end of the last segment
}

// segLen is the size of segment k.
func segLen(k int) int {
	if k < segDoubling {
		return segFirst << k
	}
	return segMax
}

func (a *segs[E]) len() int { return a.n }

// add appends e and returns its index.
func (a *segs[E]) add(e E) int32 {
	if len(a.tail) == 0 {
		a.tail = make([]E, segLen(len(a.s)))
		a.s = append(a.s, a.tail)
	}
	a.tail[0] = e
	a.tail = a.tail[1:]
	a.n++
	return int32(a.n - 1)
}

// at returns the address of element i. Offsetting i by segFirst puts the
// start of doubling segment k at 1<<(k+segFirstBits), so its top bit names
// the segment and the rest is the offset in it.
func (a *segs[E]) at(i int32) *E {
	j := uint32(i) + segFirst
	if j < segDoublingEnd {
		top := bits.Len32(j) - 1
		return &a.s[top-segFirstBits][j-1<<top]
	}
	j -= segDoublingEnd
	return &a.s[segDoubling+int(j>>segMaxBits)][j&(segMax-1)]
}

// witness returns the first candidate of ob that survived the fixpoint, or
// -1 when none did.
func (e *engine) witness(ob *obligation) int32 {
	for k := ob.lo; k < ob.hi; k++ {
		if ci := *e.cands.at(k); !e.nodes.at(ci).bad {
			return ci
		}
	}
	return -1
}

// move rebuilds ob's challenge, for Reasons and certificates.
func (e *engine) move(ob *obligation) obMove {
	mv := obMove{side: ob.side, kind: ob.kind, mover: ob.mover}
	if ob.label >= 0 {
		l := e.labels.at(ob.label)
		mv.label, mv.ch, mv.payload = l.label, l.ch, l.payload
	}
	return mv
}

// fixpoint computes the greatest fixpoint by worklist over reverse
// dependency edges (candidate → obligations it supports): when a pair dies,
// only the obligations actually depending on it are revisited, so the sweep
// is O(total candidate edges) instead of O(rescans × relation size). The
// edges are in CSR form: the obligations that node c supports are
// deps[at[c]:at[c+1]], and obligation o belongs to pair owner[o]; dead[c]
// mirrors pairNode.bad. A pair that failed its barb check is dead before the
// sweep starts: it supports nothing, so it gets no edges, and the alive
// counts of the obligations it answers start without it. Each such pair
// counts as one worklist pop, as if it had been pushed and popped.
func (e *engine) fixpoint() {
	nodes, obls := int32(e.nodes.len()), int32(e.obs.len())
	dead := make([]bool, nodes)
	statics := int64(0)
	for i := int32(0); i < nodes; i++ {
		if e.nodes.at(i).staticBad {
			dead[i] = true
			statics++
		}
	}
	at := make([]int32, nodes+1)
	edges := 0
	for k := int32(0); int(k) < e.cands.len(); k++ {
		if ci := *e.cands.at(k); !dead[ci] {
			at[ci]++
			edges++
		}
	}
	for c := 1; c < len(at); c++ {
		at[c] += at[c-1]
	}
	// Filling backwards leaves at[c] at the start of c's edges.
	deps := make([]int32, edges)
	owner := make([]int32, obls)
	alive := make([]int32, obls)
	for i := nodes - 1; i >= 0; i-- {
		n := e.nodes.at(i)
		for o := n.obHi - 1; o >= n.obLo; o-- {
			owner[o] = i
			ob := e.obs.at(o)
			for k := ob.hi - 1; k >= ob.lo; k-- {
				if ci := *e.cands.at(k); !dead[ci] {
					at[ci]--
					deps[at[ci]] = o
					alive[o]++
				}
			}
		}
	}
	// Each pair is pushed at most once, when it dies.
	work := make([]int32, 0, nodes)
	kill := func(i int32) {
		dead[i] = true
		e.nodes.at(i).bad = true
		work = append(work, i)
	}
	for i := int32(0); i < nodes; i++ {
		if dead[i] {
			continue
		}
		n := e.nodes.at(i)
		for o := n.obLo; o < n.obHi; o++ {
			if alive[o] == 0 {
				kill(i)
				break
			}
		}
	}
	cPops := e.tr.Counter("equiv.worklist_pops")
	cPops.Add(statics)
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		cPops.Add(1)
		for _, o := range deps[at[i]:at[i+1]] {
			if dead[owner[o]] {
				continue
			}
			alive[o]--
			if alive[o] == 0 {
				kill(owner[o])
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
	for o := n.obLo; o < n.obHi; o++ {
		if ob := e.obs.at(o); e.witness(ob) < 0 {
			return e.move(ob).describe()
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
		if e.sp.rel == cert.RelStep {
			what = "step barbs"
		}
		return fmt.Sprintf("%s differ on %s: %v vs %v", what, n.barb(),
			names.NewSet(n.p.barbs...), names.NewSet(n.q.barbs...))
	}
	what := "weak barb"
	if e.sp.rel == cert.RelStep {
		what = "weak step barb"
	}
	lacking := sideRight
	if n.failSide == sideRight {
		lacking = sideLeft
	}
	return fmt.Sprintf("%s side lacks %s on %s", lacking, what, n.barb())
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
	lacks := func(owner, other *termInfo, side moveSide) (bool, error) {
		for i, a := range owner.barbs {
			ok, err := e.weakBarb(other, a)
			if err != nil {
				return false, err
			}
			if !ok {
				b.failBarbOn(side, i)
				return true, nil
			}
		}
		return false, nil
	}
	if bad, err := lacks(p, q, sideLeft); bad || err != nil {
		return bad, err
	}
	return lacks(q, p, sideRight)
}

// weakBarb reports ti ⇓a: some state of ti's closure under the game's
// moves (τ*, or for step bisimilarity (τ ∪ output)*) has a strong barb on a.
func (e *engine) weakBarb(ti *termInfo, a names.Name) (bool, error) {
	cl, err := e.c.closure(ti, e.sp.moves())
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

// moveClause adds the clause that matches the moves of kind k: every move
// of one side is answered by a move of the other, or in the weak case by
// any state of its closure under k. It is the τ clause of barbed and
// labelled bisimilarity, and step bisimilarity's label-blind clause.
func (e *engine) moveClause(p, q *termInfo, k moveKind, b *built) error {
	pm, err := e.c.store.succ(p, k)
	if err != nil {
		return err
	}
	qm, err := e.c.store.succ(q, k)
	if err != nil {
		return err
	}
	qAns, pAns := qm, pm
	if e.sp.weak {
		if qAns, err = e.c.closure(q, k); err != nil {
			return err
		}
		if pAns, err = e.c.closure(p, k); err != nil {
			return err
		}
	}
	b.clause(obMove{kind: k}, pm, qm, qAns, pAns)
	return nil
}
