package cert

import (
	"encoding/binary"
	"fmt"
	"slices"
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

	// recv memoises inputDerivs per term, channel and payload, the payload
	// numbered in payloads by its bytes. Each entry is charged one unit of
	// work, so a certificate can make at most maxWork of them.
	recv     map[recvKey][]*vterm
	payloads map[string]int
	buf      []byte
}

type recvKey struct {
	t       *vterm
	ch      names.Name
	payload int
}

// vterm is a term interned by vsys.intern, one per α-class per
// verification, so terms compare by pointer.
type vterm struct {
	proc syntax.Proc
	key  string
	free names.Set
	// trans holds the symbolic transitions (Steps dedupes them before
	// Simplify, so two may reach one vterm: the two b! moves of b! | b!).
	trans []semantics.Trans

	discards map[names.Name]bool
	barbs    []names.Name // sorted; non-nil once derived
	shapes   []vshape     // sorted; non-nil once derived
	outs     []vout
	outsOK   bool // outs holds every output: t extrudes no name
	// succs and closures are indexed by move(auto); non-nil once derived.
	succs, closures [2][]*vterm
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

// move indexes a vterm's memos by kind of move: one τ, or (auto) one
// autonomous step, τ or output.
func move(auto bool) int {
	if auto {
		return 1
	}
	return 0
}

// succ returns t's successors under one move of its kind, each once, in
// the order of its first transition. Bound outputs are canonicalised
// jointly with their targets (semantics.CanonTrans), exactly as both the
// pair engine's step relation and lts.Explore intern them.
func (s *vsys) succ(t *vterm, auto bool) ([]*vterm, error) {
	if out := t.succs[move(auto)]; out != nil {
		return out, nil
	}
	out := []*vterm{}
	for _, tr := range t.trans {
		if !(tr.Act.IsTau() || auto && tr.Act.IsStep()) {
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
		out = addTerm(out, n)
	}
	t.succs[move(auto)] = out
	return out, nil
}

// addTerm appends t to the move list ts unless ts holds it already.
func addTerm(ts []*vterm, t *vterm) []*vterm {
	if slices.Contains(ts, t) {
		return ts
	}
	return append(ts, t)
}

// closureOf returns t's reflexive-transitive closure under succ (τ* or
// (τ∪output)*), memoised, budget-bounded and sorted by canonical key.
func (s *vsys) closureOf(t *vterm, auto bool) ([]*vterm, error) {
	if cl := t.closures[move(auto)]; cl != nil {
		return cl, nil
	}
	seen := map[*vterm]bool{t: true}
	out := []*vterm{t}
	work := []*vterm{t}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		next, err := s.succ(cur, auto)
		if err != nil {
			return nil, err
		}
		for _, n := range next {
			if seen[n] {
				continue
			}
			if len(seen) >= s.closure {
				return nil, fmt.Errorf("cert: closure budget exhausted (%d states)", s.closure)
			}
			seen[n] = true
			out = append(out, n)
			work = append(work, n)
		}
	}
	sortVTerms(out)
	t.closures[move(auto)] = out
	return out, nil
}

func sortVTerms(ts []*vterm) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].key < ts[j].key })
}

// strongBarbs returns the output subjects of t (p ↓a), sorted.
func strongBarbs(t *vterm) []names.Name {
	if t.barbs == nil {
		t.barbs = []names.Name{}
		for _, tr := range t.trans {
			if tr.Act.IsOutput() && !slices.Contains(t.barbs, tr.Act.Subj) {
				t.barbs = append(t.barbs, tr.Act.Subj)
			}
		}
		slices.Sort(t.barbs)
	}
	return t.barbs
}

// hasBarb reports t ↓a or, when weak, a barb on a after some closure
// derivative (τ* for barbed, (τ∪output)* for step bisimilarity).
func (s *vsys) hasBarb(t *vterm, a names.Name, weak, auto bool) (bool, error) {
	if !weak {
		return slices.Contains(strongBarbs(t), a), nil
	}
	cl, err := s.closureOf(t, auto)
	if err != nil {
		return false, err
	}
	for _, d := range cl {
		if slices.Contains(strongBarbs(d), a) {
			return true, nil
		}
	}
	return false, nil
}

// vout is an output transition under its canonical label.
type vout struct {
	label string
	to    *vterm
}

// outputs returns t's outputs with extruded names renamed to the
// deterministic canonical sequence chosen against avoid (the pair's free
// names): FreshVariant("e") against avoid ∪ fn(act), per bound name in
// order. semantics.CanonOut is the engine side of this convention, used by
// the pair engine and the prover; the verifier keeps its own copy. Only an
// extruded name depends on avoid, so a term that extrudes none keeps its
// list.
func (s *vsys) outputs(t *vterm, avoid names.Set) ([]vout, error) {
	if t.outsOK {
		return t.outs, nil
	}
	var out []vout
	bound := false
	for _, tr := range t.trans {
		if !tr.Act.IsOutput() {
			continue
		}
		bound = bound || len(tr.Act.Bound) > 0
		tr = canonOut(tr, avoid)
		to, err := s.intern(tr.Target)
		if err != nil {
			return nil, err
		}
		out = append(out, vout{tr.Act.String(), to})
	}
	t.outs, t.outsOK = out, !bound
	return out, nil
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

// inputShapes returns the (channel, arity) pairs at which t listens, in
// order.
func inputShapes(t *vterm) []vshape {
	if t.shapes == nil {
		t.shapes = []vshape{}
		for _, tr := range t.trans {
			sh := vshape{tr.Act.Subj, len(tr.Act.Objs)}
			if tr.Act.IsInput() && !slices.Contains(t.shapes, sh) {
				t.shapes = append(t.shapes, sh)
			}
		}
		sort.Slice(t.shapes, func(i, j int) bool { return t.shapes[i].less(t.shapes[j]) })
	}
	return t.shapes
}

type vshape struct {
	ch    names.Name
	arity int
}

func (a vshape) less(b vshape) bool {
	if a.ch != b.ch {
		return a.ch < b.ch
	}
	return a.arity < b.arity
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
		out = addTerm(out, t)
	}
	return out, nil
}

// inputDerivs returns the genuine reception derivatives (no discard),
// memoised: a term sits in many pairs, and each walks the same payloads.
func (s *vsys) inputDerivs(t *vterm, ch names.Name, payload []names.Name) ([]*vterm, error) {
	if id, ok := s.payloadID(payload, false); ok {
		if out, ok := s.recv[recvKey{t, ch, id}]; ok {
			return out, nil
		}
	}
	if err := s.work(1); err != nil {
		return nil, err
	}
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
		out = addTerm(out, n)
	}
	if s.recv == nil {
		s.recv, s.payloads = map[recvKey][]*vterm{}, map[string]int{}
	}
	// Clipped, so that reactions appending the discard copies it.
	out = slices.Clip(out)
	id, _ := s.payloadID(payload, true)
	s.recv[recvKey{t, ch, id}] = out
	return out, nil
}

// payloadID returns the number of payload, numbering it if add is set, or
// false if it has none. The table key is each name after its length, so
// only a newly numbered payload allocates.
func (s *vsys) payloadID(payload []names.Name, add bool) (int, bool) {
	b := s.buf[:0]
	for _, n := range payload {
		b = binary.AppendUvarint(b, uint64(len(n)))
		b = append(b, n...)
	}
	s.buf = b
	id, ok := s.payloads[string(b)]
	if !ok && add {
		id, ok = len(s.payloads), true
		s.payloads[string(b)] = id
	}
	return id, ok
}

// weakVia returns t's weak c-moves =ε=> · c · =ε=>, deduped and sorted.
func (s *vsys) weakVia(t *vterm, c challenge, avoid names.Set) ([]*vterm, error) {
	pre, err := s.closureOf(t, false)
	if err != nil {
		return nil, err
	}
	seen := map[*vterm]bool{}
	var out []*vterm
	for _, d := range pre {
		ms, err := s.moves(d, c, avoid)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			post, err := s.closureOf(m, false)
			if err != nil {
				return nil, err
			}
			for _, f := range post {
				if !seen[f] {
					seen[f] = true
					out = append(out, f)
				}
			}
		}
	}
	sortVTerms(out)
	return out, nil
}

// discardAnswers returns a defender's answers to an attacker that
// discards ch: the defender itself if it discards ch too or, when weak,
// each of its τ*-derivatives that does.
func (s *vsys) discardAnswers(def *vterm, ch names.Name, weak bool) ([]*vterm, error) {
	cands := []*vterm{def}
	if weak {
		var err error
		if cands, err = s.closureOf(def, false); err != nil {
			return nil, err
		}
	}
	var out []*vterm
	for _, d := range cands {
		dd, err := s.discardsOn(d, ch)
		if err != nil {
			return nil, err
		}
		if dd {
			out = append(out, d)
		}
	}
	return out, nil
}

// freeUnion returns fn(p) ∪ fn(q) as a fresh set.
func freeUnion(p, q *vterm) names.Set {
	return p.free.Clone().AddAll(q.free)
}

// pairUniverse is the instantiation universe of a pair whose free names
// are fn: those names plus `extra` deterministic reservoir names fresh for
// them, enough to realise every equality pattern of an extra-ary payload.
func pairUniverse(fn names.Set, extra int) []names.Name {
	avoid := fn.Clone()
	u := avoid.Sorted()
	for i := 0; i < extra; i++ {
		w := syntax.FreshVariant("w", avoid)
		avoid = avoid.Add(w)
		u = append(u, w)
	}
	return u
}

// eachTuple calls f on each tuple of u^k in odometer order (position 0 most
// significant), charging one unit of work before each, so no walk outgrows
// MaxWork however large u^k is. f must not keep the tuple: the next one
// overwrites it.
func (s *vsys) eachTuple(u []names.Name, k int, f func([]names.Name) error) error {
	if k > 0 && len(u) == 0 {
		return nil
	}
	idx := make([]int, k)
	t := make([]names.Name, k)
	for {
		if err := s.work(1); err != nil {
			return err
		}
		for i, j := range idx {
			t[i] = u[j]
		}
		if err := f(t); err != nil {
			return err
		}
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(u) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
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
