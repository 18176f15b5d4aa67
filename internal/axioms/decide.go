package axioms

import (
	"context"
	"errors"
	"fmt"

	"bpi/internal/actions"
	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/obs"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Prover decides A ⊢ p = q for finite processes, following the structure of
// the completeness proof (Theorem 7):
//
//   - the top level quantifies over every complete condition on fn(p,q)
//     (world enumeration — the specialisation step of the proof, via
//     Lemma 19), and requires strict summand matching exactly as ~+ does:
//     equal discard sets, τ against τ, outputs against identical outputs,
//     inputs against inputs;
//   - continuation comparisons first *saturate* both sides with axiom (H),
//     adding inoffensive inputs a(z).p for every channel the opposite side
//     listens on but p discards — after saturation, strict matching
//     coincides with the noisy labelled bisimilarity ~ used in the
//     definition of ~+;
//   - input summands are matched per instantiation (names of the world plus
//     one fresh), with possibly different partners per instantiation —
//     this is the (SP) selector construction of the proof;
//   - bound outputs are matched up to a common fresh extruded name.
//
// The induction measure is the sum of the two depths, as in the paper; the
// prover memoises verified pairs within one Decide call and bounds recursion
// defensively. It keeps no verdict from one call to the next, so a verdict
// and the steps it spends do not depend on the prover's history. A Prover is
// NOT safe for concurrent use; create one per goroutine.
type Prover struct {
	Sys *semantics.System
	// MaxNames bounds |fn(p,q)| at the top level (world count is the Bell
	// number; default 5).
	MaxNames int
	// MaxSteps bounds the total number of pair comparisons (default 200000).
	MaxSteps int

	// Tracing records a human-readable outline of the derivation: world
	// specialisations, (H)-saturations, and (SP) input selections. Retrieve
	// with TraceLines; bounded to keep output manageable.
	Tracing bool

	// Obs, when non-nil, receives axioms.decide / axioms.world spans and
	// the counters axioms.worlds, axioms.compares, axioms.saturations and
	// axioms.memo_hits. The nil default is free (nil-safe no-ops).
	Obs *obs.Tracer

	// Certify records a replayable proof object (internal/cert) for every
	// Decide call; retrieve it with Certificate. Goals are keyed by the memo
	// entries of the call.
	Certify bool

	rec      *axRecorder
	lastCert *cert.Certificate

	memo  map[string]bool // this call's verified pairs
	steps int
	trace []string
	ctx   context.Context // set per Decide/DecideCtx call

	// Counters resolved once per DecideCtx call (nil without a tracer).
	cCompares, cSaturations, cMemoHits *obs.Counter
}

// TraceLines returns the derivation outline recorded by the last Decide
// call (empty unless Tracing is set).
func (pr *Prover) TraceLines() []string { return pr.trace }

func (pr *Prover) tracef(format string, args ...interface{}) {
	if !pr.Tracing || len(pr.trace) >= 400 {
		return
	}
	pr.trace = append(pr.trace, fmt.Sprintf(format, args...))
}

// NewProver returns a prover over the given system.
func NewProver(sys *semantics.System) *Prover {
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	return &Prover{Sys: sys}
}

func (pr *Prover) maxNames() int {
	if pr.MaxNames <= 0 {
		return 5
	}
	return pr.MaxNames
}

func (pr *Prover) maxSteps() int {
	if pr.MaxSteps <= 0 {
		return 200000
	}
	return pr.MaxSteps
}

// ErrBudget reports that a Decide call ran out of one of the prover's
// budgets: the free names exceed MaxNames, or the comparisons exceed
// MaxSteps.
type ErrBudget struct{ What string }

func (e ErrBudget) Error() string { return "axioms: " + e.What }

// ErrInfinite is Decide's error for a term outside the axiomatisation: one
// that is not finite (it contains recursion).
var ErrInfinite = errors.New("axioms: the axiomatisation covers finite processes only")

// Decide reports whether A ⊢ p = q (equivalently, by Theorems 6 and 7,
// whether p ~c q) for finite processes p, q.
func (pr *Prover) Decide(p, q syntax.Proc) (bool, error) {
	return pr.DecideCtx(context.Background(), p, q)
}

// DecideCtx is Decide honouring ctx: cancellation or deadline expiry aborts
// the derivation search (checked at every pair comparison, so at every
// world) with an error wrapping ctx.Err(). The worlds are enumerated one at
// a time, so the search stops within one world of the deadline however
// many worlds the free names have.
func (pr *Prover) DecideCtx(ctx context.Context, p, q syntax.Proc) (bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	pr.ctx = ctx
	span := pr.Obs.Span("axioms.decide")
	defer span.End()
	pr.cCompares = pr.Obs.Counter("axioms.compares")
	pr.cSaturations = pr.Obs.Counter("axioms.saturations")
	pr.cMemoHits = pr.Obs.Counter("axioms.memo_hits")
	cWorlds := pr.Obs.Counter("axioms.worlds")
	if !syntax.IsFinite(p) || !syntax.IsFinite(q) {
		return false, ErrInfinite
	}
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q))
	if fn.Len() > pr.maxNames() {
		return false, ErrBudget{fmt.Sprintf("%d free names exceed the world budget (%d)", fn.Len(), pr.maxNames())}
	}
	pr.steps = 0
	pr.trace = pr.trace[:0]
	pr.lastCert = nil
	pr.memo = map[string]bool{}
	pr.rec = nil
	if pr.Certify {
		pr.rec = &axRecorder{byKey: map[string]int{}}
	}
	var worlds []cert.WorldStep
	var err error
	refuted := false
	eachWorld(fn, func(w World) bool {
		pr.tracef("world %s: specialise both sides with σ=%s (Lemma 19)", w, w.Rep)
		cWorlds.Add(1)
		ws := span.Child("axioms.world")
		var ok bool
		ok, err = pr.decideWorld(syntax.Apply(p, w.Rep), syntax.Apply(q, w.Rep), false)
		ws.End()
		if err != nil {
			return false
		}
		if !ok {
			pr.tracef("world %s: strict summand matching FAILED — not provable", w)
			// A refutation names exactly the failing world.
			pr.finishCert(p, q, false, []cert.WorldStep{{Rep: repStrings(w.Rep), Goal: pr.recLast()}})
			refuted = true
			return false
		}
		if pr.rec != nil {
			worlds = append(worlds, cert.WorldStep{Rep: repStrings(w.Rep), Goal: pr.rec.last})
		}
		pr.tracef("world %s: all summands matched", w)
		return true
	})
	if err != nil || refuted {
		return false, err
	}
	pr.tracef("A ⊢ p = q by (C3)-recombination of the world instances")
	pr.finishCert(p, q, true, worlds)
	return true, nil
}

// decideWorld compares two world-specialised terms. With saturate unset the
// comparison is strict (the ~+ level: discard sets must already agree);
// with saturate set, missing input channels are completed with (H) before
// matching (the ~ level for continuations).
func (pr *Prover) decideWorld(p, q syntax.Proc, saturate bool) (bool, error) {
	pr.steps++
	pr.cCompares.Add(1)
	if pr.steps > pr.maxSteps() {
		return false, ErrBudget{"prover step budget exhausted"}
	}
	if pr.ctx != nil {
		if err := pr.ctx.Err(); err != nil {
			return false, fmt.Errorf("axioms: derivation canceled: %w", err)
		}
	}
	key := syntax.Key(p) + "\x00" + syntax.Key(q) + boolKey(saturate)
	if v, ok := pr.memo[key]; ok {
		pr.cMemoHits.Add(1)
		if pr.rec != nil {
			gi, recorded := pr.rec.byKey[key]
			if !recorded {
				// Only provisional entries lack a goal, and those are never
				// hit: the recursion measure strictly decreases.
				return false, fmt.Errorf("axioms: internal error: memo hit on an unrecorded goal")
			}
			pr.rec.last = gi
		}
		return v, nil
	}
	// Provisional positive entry guards against pathological re-entry; the
	// recursion strictly decreases the sum of depths, so genuine cycles
	// cannot occur on finite terms and the entry is always overwritten.
	pr.memo[key] = true
	if pr.rec != nil {
		pr.rec.stack = append(pr.rec.stack,
			&cert.Goal{P: syntax.String(p), Q: syntax.String(q), Saturate: saturate})
	}
	v, err := pr.decideWorld1(p, q, saturate)
	if pr.rec != nil {
		g := pr.rec.stack[len(pr.rec.stack)-1]
		pr.rec.stack = pr.rec.stack[:len(pr.rec.stack)-1]
		if err == nil {
			g.Proved = v
			pr.rec.goals = append(pr.rec.goals, *g)
			pr.rec.byKey[key] = len(pr.rec.goals) - 1
			pr.rec.last = len(pr.rec.goals) - 1
		}
	}
	if err != nil {
		delete(pr.memo, key)
		return false, err
	}
	pr.memo[key] = v
	return v, nil
}

func boolKey(b bool) string {
	if b {
		return "\x01"
	}
	return "\x00"
}

// summandSets computes the (τ, output, input) summand lists of a term,
// with bound outputs canonicalised against avoid.
func (pr *Prover) summandSets(p syntax.Proc, avoid names.Set) (taus []Summand, outs []Summand, ins []Summand, err error) {
	ts, err := pr.Sys.Steps(p)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, t := range ts {
		switch t.Act.Kind {
		case actions.Tau:
			taus = append(taus, transToSummand(t))
		case actions.In:
			ins = append(ins, transToSummand(t))
		default:
			outs = append(outs, transToSummand(semantics.CanonOut(t, avoid)))
		}
	}
	return taus, outs, ins, nil
}

func (pr *Prover) decideWorld1(p, q syntax.Proc, saturate bool) (bool, error) {
	g := pr.curGoal()
	fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q))
	pT, pO, pI, err := pr.summandSets(p, fn)
	if err != nil {
		return false, err
	}
	qT, qO, qI, err := pr.summandSets(q, fn)
	if err != nil {
		return false, err
	}

	// Input channel/arity comparison (the discard sets over fn).
	pShapes, qShapes := shapesOf(pI), shapesOf(qI)
	if !saturate {
		if !shapeEq(pShapes, qShapes) {
			if g != nil {
				g.FailKind = "shapes"
			}
			return false, nil
		}
		// Input shapes alone do not determine the discard relation: a
		// mixed-arity parallel of listeners on the same channel (b? | b?(x))
		// neither receives on b (rule 12 needs equal arities) nor discards it
		// (rule 9 needs both components to), so it has no input summand on b
		// yet is NOT ~+ to 0, whose discard b: must be answered. Compare the
		// actual discard sets over fn, exactly as Definition 11's discard
		// clause does.
		for _, a := range fn.Sorted() {
			dp, err := pr.Sys.Discards(p, a)
			if err != nil {
				return false, err
			}
			dq, err := pr.Sys.Discards(q, a)
			if err != nil {
				return false, err
			}
			if dp != dq {
				pr.tracef("  discard sets differ on %s (left discards=%v, right=%v)", a, dp, dq)
				if g != nil {
					g.FailKind, g.FailName = "discards", string(a)
				}
				return false, nil
			}
		}
	} else {
		// (H) saturation: add inoffensive inputs for the channels only the
		// other side listens on. The binder is fresh for the continuation,
		// which is the whole term — exactly ā.p = ā.(p + φa(z).p).
		satP, err := pr.saturations(p, pShapes, qShapes, fn)
		if err != nil {
			return false, err
		}
		satQ, err := pr.saturations(q, qShapes, pShapes, fn)
		if err != nil {
			return false, err
		}
		for _, ssum := range satP {
			pr.tracef("  (H): saturate left with %s?(…) (inoffensive input)", ssum.Ch)
		}
		for _, ssum := range satQ {
			pr.tracef("  (H): saturate right with %s?(…) (inoffensive input)", ssum.Ch)
		}
		pI = append(pI, satP...)
		qI = append(qI, satQ...)
		pShapes, qShapes = shapesOf(pI), shapesOf(qI)
		if !shapeEq(pShapes, qShapes) {
			if g != nil {
				g.FailKind = "sat-shapes"
			}
			return false, nil
		}
	}

	// τ and output summands: strict mutual matching with saturated
	// continuations. A successful match records the chosen partner and
	// subgoal; an unmatched mover records the refutation of every candidate
	// (the search tried them all before failing).
	matchAll := func(side, kind string, movers, others []Summand, pred func(a, b Summand) bool) (bool, error) {
		for _, s := range movers {
			var tried []cert.RefuteStep
			seen := map[string]bool{}
			matched := false
			for _, r := range others {
				if !pred(s, r) {
					continue
				}
				ok, err := pr.decideWorld(s.Cont, r.Cont, true)
				if err != nil {
					return false, err
				}
				if ok {
					if g != nil {
						st := cert.MatchStep{Side: side, Cont: syntax.String(s.Cont),
							Partner: syntax.String(r.Cont), Next: pr.rec.last}
						if kind == "out" {
							st.Label = summandLabel(s)
							g.Outs = append(g.Outs, st)
						} else {
							g.Taus = append(g.Taus, st)
						}
					}
					matched = true
					break
				}
				if g != nil {
					pc := syntax.String(r.Cont)
					if !seen[pc] {
						seen[pc] = true
						tried = append(tried, cert.RefuteStep{Partner: pc, Next: pr.rec.last})
					}
				}
			}
			if !matched {
				if g != nil {
					g.FailKind, g.FailSide, g.FailCont = kind, side, syntax.String(s.Cont)
					if kind == "out" {
						g.FailLabel = summandLabel(s)
					}
					g.Refutes = tried
				}
				return false, nil
			}
		}
		return true, nil
	}
	tauPred := func(a, b Summand) bool { return true }
	// Outputs match on identical labels (bound outputs already share
	// canonical extruded names because both sides used the same avoid set).
	outPred := func(a, b Summand) bool {
		return a.Ch == b.Ch && a.Bound == b.Bound && namesEq(a.Objs, b.Objs) && namesEq(a.Binder, b.Binder)
	}
	for _, dir := range [2]struct {
		side           string
		movers, others []Summand
	}{{"left", pT, qT}, {"right", qT, pT}} {
		ok, err := matchAll(dir.side, "tau", dir.movers, dir.others, tauPred)
		if err != nil || !ok {
			return false, err
		}
	}
	for _, dir := range [2]struct {
		side           string
		movers, others []Summand
	}{{"left", pO, qO}, {"right", qO, pO}} {
		ok, err := matchAll(dir.side, "out", dir.movers, dir.others, outPred)
		if err != nil || !ok {
			return false, err
		}
	}

	// Input summands: per-instantiation matching (the (SP) selector). For
	// every input of one side and every payload over fn plus fresh names,
	// some input of the other side at the same channel/arity must have an
	// A-equal instantiated continuation.
	if ok, err := pr.matchInputs("left", pI, qI, fn); err != nil || !ok {
		return false, err
	}
	return pr.matchInputs("right", qI, pI, fn)
}

// saturations builds the (H) summands added to p: one input a(z̃).p per
// (channel, arity) the other side listens on and p discards. The discard
// check is the real Table 2 relation, not absence of the (channel, arity)
// shape: a term listening on a at another arity — or stuck on a — does not
// discard a, and axiom (H) gives no right to saturate it (a?() vs a?(x)
// must stay distinguishable; found by the differential oracle).
func (pr *Prover) saturations(p syntax.Proc, own, other map[shapeKey]bool, fn names.Set) ([]Summand, error) {
	var out []Summand
	for sh := range other {
		if own[sh] {
			continue
		}
		disc, err := pr.Sys.Discards(p, sh.ch)
		if err != nil {
			return nil, err
		}
		if !disc {
			continue
		}
		binder := make([]names.Name, sh.arity)
		avoid := fn.Clone()
		for i := range binder {
			binder[i] = syntax.FreshVariant("z", avoid)
			avoid = avoid.Add(binder[i])
		}
		out = append(out, Summand{Kind: actions.In, Ch: sh.ch, Binder: binder, Cont: p})
		pr.cSaturations.Add(1)
	}
	return out, nil
}

type shapeKey struct {
	ch    names.Name
	arity int
}

func shapesOf(ins []Summand) map[shapeKey]bool {
	out := map[shapeKey]bool{}
	for _, s := range ins {
		out[shapeKey{s.Ch, len(s.Binder)}] = true
	}
	return out
}

func shapeEq(a, b map[shapeKey]bool) bool {
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

// matchInputs checks that every instantiation of every input summand of ls
// is matched by some input summand of rs. side names the mover side in the
// recorded proof steps. An input is instantiated over the shared free
// names plus enough fresh names to realise every equality pattern among
// its parameters, one payload at a time.
func (pr *Prover) matchInputs(side string, ls, rs []Summand, fn names.Set) (bool, error) {
	g := pr.curGoal()
	for _, l := range ls {
		err := names.EachTuple(names.Universe(fn, len(l.Binder)), len(l.Binder), func(payload []names.Name) error {
			lc := syntax.Instantiate(l.Cont, l.Binder, payload)
			var tried []cert.RefuteStep
			seen := map[string]bool{}
			for _, r := range rs {
				if r.Ch != l.Ch || len(r.Binder) != len(l.Binder) {
					continue
				}
				rc := syntax.Instantiate(r.Cont, r.Binder, payload)
				ok, err := pr.decideWorld(lc, rc, true)
				if err != nil {
					return err
				}
				if ok {
					if g != nil {
						g.Ins = append(g.Ins, cert.InStep{Side: side, Ch: string(l.Ch),
							Payload: nameStrings(payload), Cont: syntax.String(lc),
							Partner: syntax.String(rc), Next: pr.rec.last})
					}
					return nil
				}
				if g != nil {
					pc := syntax.String(rc)
					if !seen[pc] {
						seen[pc] = true
						tried = append(tried, cert.RefuteStep{Partner: pc, Next: pr.rec.last})
					}
				}
			}
			if g != nil {
				g.FailKind, g.FailSide = "in", side
				g.FailName, g.FailPayload = string(l.Ch), nameStrings(payload)
				g.FailCont = syntax.String(lc)
				g.Refutes = tried
			}
			return errUnmatchedInput
		})
		if errors.Is(err, errUnmatchedInput) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// errUnmatchedInput stops matchInputs' payload walk at the first
// instantiation no input summand of the other side matches.
var errUnmatchedInput = errors.New("axioms: unmatched input instantiation")

func namesEq(a, b []names.Name) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
