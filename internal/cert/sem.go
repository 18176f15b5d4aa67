package cert

import (
	"fmt"
	"sort"

	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// vsys is the verifier's own semantic layer: canonical terms with memoised
// transitions, discard sets and closures, all re-derived from
// internal/semantics. It intentionally duplicates (rather than imports) the
// engine-side caching in internal/equiv — an error in the engine's semantic
// plumbing cannot leak into verification.
type vsys struct {
	sys     *semantics.System
	byKey   map[string]*vterm
	closure int // τ/autonomous closure budget
	steps   int // work performed so far
	maxWork int
}

type vterm struct {
	proc syntax.Proc
	key  string
	free names.Set
	// trans holds the symbolic transitions (Steps is already deduped).
	trans []semantics.Trans

	discards map[names.Name]bool
	tauS     []*vterm
	tauOK    bool
	autoS    []*vterm
	autoOK   bool
	tauC     []*vterm
	autoC    []*vterm
}

func (s *vsys) work(n int) error {
	s.steps += n
	if s.steps > s.maxWork {
		return fmt.Errorf("cert: verification work budget exhausted (%d)", s.maxWork)
	}
	return nil
}

// intern canonicalises p (Simplify + Key) and derives its transitions.
func (s *vsys) intern(p syntax.Proc) (*vterm, error) {
	p = syntax.Simplify(p)
	k := syntax.Key(p)
	if t, ok := s.byKey[k]; ok {
		return t, nil
	}
	if err := s.work(1); err != nil {
		return nil, err
	}
	ts, err := s.sys.Steps(p)
	if err != nil {
		return nil, err
	}
	t := &vterm{proc: p, key: k, free: syntax.FreeNames(p), trans: ts}
	s.byKey[k] = t
	return t, nil
}

// parseTerm parses a printed certificate term.
func parseTerm(src string) (syntax.Proc, error) {
	p, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("cert: bad term %q: %w", parser.Excerpt(src), err)
	}
	return p, nil
}

// parse interns a printed certificate term.
func (s *vsys) parse(src string) (*vterm, error) {
	p, err := parseTerm(src)
	if err != nil {
		return nil, err
	}
	return s.intern(p)
}

func (s *vsys) discardsOn(t *vterm, a names.Name) (bool, error) {
	if v, ok := t.discards[a]; ok {
		return v, nil
	}
	v, err := s.sys.Discards(t.proc, a)
	if err != nil {
		return false, err
	}
	if t.discards == nil {
		t.discards = map[names.Name]bool{}
	}
	t.discards[a] = v
	return v, nil
}

func (s *vsys) tauSucc(t *vterm) ([]*vterm, error) {
	if t.tauOK {
		return t.tauS, nil
	}
	out := []*vterm{}
	for _, tr := range t.trans {
		if !tr.Act.IsTau() {
			continue
		}
		n, err := s.intern(tr.Target)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	t.tauS, t.tauOK = out, true
	return out, nil
}

// autoSucc returns the τ- and output-successors, bound outputs
// canonicalised jointly with their targets (semantics.CanonTrans), exactly
// as both the pair engine's step relation and lts.Explore intern them.
func (s *vsys) autoSucc(t *vterm) ([]*vterm, error) {
	if t.autoOK {
		return t.autoS, nil
	}
	out := []*vterm{}
	for _, tr := range t.trans {
		if !tr.Act.IsStep() {
			continue
		}
		tgt := tr.Target
		if tr.Act.IsOutput() && len(tr.Act.Bound) > 0 {
			_, tgt = semantics.CanonTrans(tr.Act, tr.Target)
		}
		n, err := s.intern(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	t.autoS, t.autoOK = out, true
	return out, nil
}

func (s *vsys) tauClosure(t *vterm) ([]*vterm, error) {
	if t.tauC != nil {
		return t.tauC, nil
	}
	cl, err := s.reach(t, s.tauSucc)
	if err != nil {
		return nil, err
	}
	t.tauC = cl
	return cl, nil
}

func (s *vsys) autoClosure(t *vterm) ([]*vterm, error) {
	if t.autoC != nil {
		return t.autoC, nil
	}
	cl, err := s.reach(t, s.autoSucc)
	if err != nil {
		return nil, err
	}
	t.autoC = cl
	return cl, nil
}

// reach is reflexive-transitive reachability, budget-bounded and sorted by
// canonical key.
func (s *vsys) reach(t *vterm, succ func(*vterm) ([]*vterm, error)) ([]*vterm, error) {
	seen := map[string]bool{t.key: true}
	out := []*vterm{t}
	work := []*vterm{t}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		next, err := succ(cur)
		if err != nil {
			return nil, err
		}
		for _, n := range next {
			if seen[n.key] {
				continue
			}
			if len(seen) >= s.closure {
				return nil, fmt.Errorf("cert: closure budget exhausted (%d states)", s.closure)
			}
			seen[n.key] = true
			out = append(out, n)
			work = append(work, n)
		}
	}
	sortVTerms(out)
	return out, nil
}

func sortVTerms(ts []*vterm) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].key < ts[j].key })
}

// strongBarbs returns the output subjects of t (p ↓a).
func strongBarbs(t *vterm) names.Set {
	out := names.NewSet()
	for _, tr := range t.trans {
		if tr.Act.IsOutput() {
			out = out.Add(tr.Act.Subj)
		}
	}
	return out
}

// hasWeakBarb reports a barb on a after some closure derivative (τ* for
// barbed, (τ∪output)* for step bisimilarity).
func (s *vsys) hasWeakBarb(t *vterm, a names.Name, auto bool) (bool, error) {
	cl, err := s.closureOf(t, auto)
	if err != nil {
		return false, err
	}
	for _, d := range cl {
		if strongBarbs(d).Contains(a) {
			return true, nil
		}
	}
	return false, nil
}

func (s *vsys) closureOf(t *vterm, auto bool) ([]*vterm, error) {
	if auto {
		return s.autoClosure(t)
	}
	return s.tauClosure(t)
}

// outputsCanon returns t's output transitions with extruded names renamed to
// the deterministic canonical sequence chosen against avoid: FreshVariant("e")
// against avoid ∪ fn(act), per bound name in order. semantics.CanonOut is
// the engine side of this convention, used by the pair engine and the
// prover; the verifier keeps its own copy.
func outputsCanon(t *vterm, avoid names.Set) []semantics.Trans {
	var out []semantics.Trans
	for _, tr := range t.trans {
		if !tr.Act.IsOutput() {
			continue
		}
		out = append(out, canonOut(tr, avoid))
	}
	return out
}

func canonOut(t semantics.Trans, avoid names.Set) semantics.Trans {
	if len(t.Act.Bound) == 0 {
		return t
	}
	av := avoid.Clone().AddAll(t.Act.FreeNames())
	ren := names.Subst{}
	for _, b := range t.Act.Bound {
		nb := syntax.FreshVariant("e", av)
		av = av.Add(nb)
		ren[b] = nb
	}
	return semantics.Trans{Act: t.Act.RenameAll(ren), Target: syntax.Apply(t.Target, ren)}
}

// inputShapes returns the (channel, arity) pairs at which t listens.
func inputShapes(t *vterm) map[vshape]bool {
	out := map[vshape]bool{}
	for _, tr := range t.trans {
		if tr.Act.IsInput() {
			out[vshape{tr.Act.Subj, len(tr.Act.Objs)}] = true
		}
	}
	return out
}

type vshape struct {
	ch    names.Name
	arity int
}

func sortVShapes(ss []vshape) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].ch != ss[j].ch {
			return ss[i].ch < ss[j].ch
		}
		return ss[i].arity < ss[j].arity
	})
}

// reactions returns t's reactions to a ground broadcast ch(payload): every
// instantiated input derivative plus t itself when it discards ch.
func (s *vsys) reactions(t *vterm, ch names.Name, payload []names.Name) ([]*vterm, error) {
	out, err := s.inputDerivs(t, ch, payload)
	if err != nil {
		return nil, err
	}
	d, err := s.discardsOn(t, ch)
	if err != nil {
		return nil, err
	}
	if d {
		out = append(out, t)
	}
	return out, nil
}

// inputDerivs returns the genuine reception derivatives (no discard).
func (s *vsys) inputDerivs(t *vterm, ch names.Name, payload []names.Name) ([]*vterm, error) {
	var out []*vterm
	for _, tr := range t.trans {
		if !tr.Act.IsInput() || tr.Act.Subj != ch || len(tr.Act.Objs) != len(payload) {
			continue
		}
		_, tgt := semantics.Instantiate(tr, payload)
		n, err := s.intern(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// weakReactions returns =ε=> · ch(payload)? · =ε=> (receive-or-discard in
// the middle), deduped and sorted.
func (s *vsys) weakReactions(t *vterm, ch names.Name, payload []names.Name) ([]*vterm, error) {
	return s.weakVia(t, func(d *vterm) ([]*vterm, error) { return s.reactions(d, ch, payload) })
}

// weakInputDerivs returns =ε=> · ch(payload) · =ε=> (strict reception in
// the middle), deduped and sorted.
func (s *vsys) weakInputDerivs(t *vterm, ch names.Name, payload []names.Name) ([]*vterm, error) {
	return s.weakVia(t, func(d *vterm) ([]*vterm, error) { return s.inputDerivs(d, ch, payload) })
}

func (s *vsys) weakVia(t *vterm, mid func(*vterm) ([]*vterm, error)) ([]*vterm, error) {
	pre, err := s.tauClosure(t)
	if err != nil {
		return nil, err
	}
	seen := map[string]*vterm{}
	for _, d := range pre {
		ms, err := mid(d)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			post, err := s.tauClosure(m)
			if err != nil {
				return nil, err
			}
			for _, f := range post {
				seen[f.key] = f
			}
		}
	}
	out := make([]*vterm, 0, len(seen))
	for _, f := range seen {
		out = append(out, f)
	}
	sortVTerms(out)
	return out, nil
}

// freeUnion returns fn(p) ∪ fn(q) as a fresh set.
func freeUnion(p, q *vterm) names.Set {
	return p.free.Clone().AddAll(q.free)
}

// pairUniverse is the instantiation universe of a pair: the shared free
// names plus `extra` deterministic reservoir names fresh for the pair.
func pairUniverse(p, q *vterm, extra int) []names.Name {
	avoid := freeUnion(p, q)
	u := avoid.Sorted()
	for i := 0; i < extra; i++ {
		w := syntax.FreshVariant("w", avoid)
		avoid = avoid.Add(w)
		u = append(u, w)
	}
	return u
}

// vtuples enumerates u^k in odometer order (position 0 most significant).
func vtuples(u []names.Name, k int) [][]names.Name {
	if k == 0 {
		return [][]names.Name{nil}
	}
	if len(u) == 0 {
		return nil
	}
	var out [][]names.Name
	idx := make([]int, k)
	for {
		t := make([]names.Name, k)
		for i, j := range idx {
			t[i] = u[j]
		}
		out = append(out, t)
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(u) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

func nameStrings(ns []names.Name) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = string(n)
	}
	return out
}

func toNames(ss []string) []names.Name {
	out := make([]names.Name, len(ss))
	for i, s := range ss {
		out[i] = names.Name(s)
	}
	return out
}
