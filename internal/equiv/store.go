package equiv

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"bpi/internal/names"
	"bpi/internal/obs"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Store is the concurrency-safe semantic layer shared by Checkers. It
// interns canonical terms to dense uint64 IDs and memoises the per-term
// semantic data every equivalence query re-derives otherwise: transitions,
// strong barbs, free-output targets, the discard relation, and per kind of
// move (τ, or autonomous: τ and outputs) the successors and their closures.
//
// One mutex guards the term table; Simplify, keying and Steps run outside
// it. Per-term derived data is computed singleflight-style — transitions
// under a sync.Once, the other memos by compute-unlocked-then-publish (a
// lost race recomputes an identical value, which keeps the lock graph
// acyclic even for τ-cyclic terms).
//
// Memoised slices are shared between callers and must not be mutated.
// Closures are returned sorted by canonical key, so every consumer sees the
// same deterministic order regardless of interning order.
type Store struct {
	sys    *semantics.System
	nextID atomic.Uint64
	// mu guards terms, the interned terms by canonical key.
	mu    sync.Mutex
	terms map[string]*termInfo

	// Reuse counters, exposed by Stats. "Derivations" are the memoised
	// per-term lookups (discards, successor sets, closures): a hit returns
	// cached data, a miss recomputes it from the semantics.
	interns, derivs tally
}

// tally counts the hits and misses of one kind of lookup, and mirrors them
// onto an attached tracer's counters (nil — a no-op with no atomic traffic
// — until SetObs attaches one).
type tally struct {
	hits, misses       atomic.Uint64
	obsHits, obsMisses *obs.Counter
}

func (t *tally) count(hit bool) {
	if hit {
		t.hits.Add(1)
		t.obsHits.Add(1)
		return
	}
	t.misses.Add(1)
	t.obsMisses.Add(1)
}

// SetObs mirrors the store's reuse counters (store.intern_hits/misses,
// store.deriv_hits/misses) onto t, live rather than snapshot — so a
// daemon can export them per scrape. Attach before the store is shared
// across goroutines; a nil t detaches.
func (s *Store) SetObs(t *obs.Tracer) {
	s.interns.obsHits, s.interns.obsMisses = t.Counter("store.intern_hits"), t.Counter("store.intern_misses")
	s.derivs.obsHits, s.derivs.obsMisses = t.Counter("store.deriv_hits"), t.Counter("store.deriv_misses")
}

// Stats is a snapshot of a store's occupancy and reuse counters.
type Stats struct {
	// Terms is the number of interned canonical terms.
	Terms uint64
	// InternHits / InternMisses count intern calls that found (resp. had to
	// create) the canonical term.
	InternHits, InternMisses uint64
	// DerivationHits / DerivationMisses count memoised per-term lookups
	// (discards, τ/autonomous successors and closures) served from cache
	// resp. recomputed from the semantics.
	DerivationHits, DerivationMisses uint64
}

// Stats returns a consistent-enough snapshot of the store counters (each
// counter is read atomically; the set is not a single atomic snapshot).
func (s *Store) Stats() Stats {
	return Stats{
		Terms:            s.nextID.Load(),
		InternHits:       s.interns.hits.Load(),
		InternMisses:     s.interns.misses.Load(),
		DerivationHits:   s.derivs.hits.Load(),
		DerivationMisses: s.derivs.misses.Load(),
	}
}

// NewStore returns a store over the given system (nil means the empty
// definitions environment). The underlying semantics layer is pure — a
// System is immutable after construction and Steps/Discards share no mutable
// state — so one store may serve any number of goroutines.
func NewStore(sys *semantics.System) *Store {
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	return &Store{sys: sys, terms: make(map[string]*termInfo)}
}

// System returns the semantic system the store derives data from.
func (s *Store) System() *semantics.System { return s.sys }

// termInfo caches per-term semantic data. The id is dense (assigned in
// interning order by an atomic counter) and unique within one store; pair
// engines key their state on id pairs instead of concatenated keys.
type termInfo struct {
	id   uint64
	proc syntax.Proc
	key  string

	// trans is computed once, singleflight, on first demand, together with
	// barbs, the subjects of the output transitions (p ↓a), sorted, and
	// boundOut, whether any output extrudes a name.
	transOnce sync.Once
	trans     []semantics.Trans
	barbs     []names.Name
	boundOut  bool
	transErr  error

	// mu guards the lazily memoised fields below. Never held while calling
	// into the store for other terms. free is nil until freeNames derives
	// it. succs and closures are indexed by a memoised move kind, kindTau or
	// kindStep, and nil until derived.
	mu       sync.Mutex
	free     names.Set
	discards map[names.Name]bool
	succs    [2][]*termInfo
	closures [2][]*termInfo
	outs     []outTarget
	outsOK   bool
}

// outTarget is one output move: its canonical label and interned target.
type outTarget struct {
	label string
	tgt   *termInfo
}

// keyBufs holds idle key buffers for intern. One that grew past
// maxPooledKey bytes is dropped instead, as syntax drops its key writers.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledKey = 64 << 10

// intern canonicalises p and returns its unique termInfo, computing the
// transitions singleflight. Concurrent interns of the same term return the
// same pointer. The key is written into a pooled buffer and the term table
// probed with its bytes, so only a new term allocates its key string.
func (s *Store) intern(p syntax.Proc) (*termInfo, error) {
	p = syntax.Simplify(p)
	kb := keyBufs.Get().(*[]byte)
	k := syntax.AppendKey((*kb)[:0], p)
	ti, fresh := s.resolve(k, p)
	if cap(k) <= maxPooledKey {
		*kb = k
		keyBufs.Put(kb)
	}
	s.interns.count(!fresh)
	return s.ready(ti)
}

// resolve looks up (or creates) the termInfo of an already-simplified term
// with key k. It does NOT compute transitions — call ready. A new term is
// built between two holds of the table lock, and takes its id when it is
// inserted, unless another goroutine inserted the term first. Allocating
// under the one lock stalled bpid's other worker: perfbench batch passes
// took 11% longer on a 2-CPU host.
func (s *Store) resolve(k []byte, p syntax.Proc) (ti *termInfo, fresh bool) {
	s.mu.Lock()
	ti, ok := s.terms[string(k)]
	s.mu.Unlock()
	if ok {
		return ti, false
	}
	nt := &termInfo{proc: p, key: string(k)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ti, ok := s.terms[nt.key]; ok {
		return ti, false
	}
	nt.id = s.nextID.Add(1)
	s.terms[nt.key] = nt
	return nt, true
}

// ready computes ti's transitions and strong barbs singleflight (outside
// the table lock) and surfaces any derivation error.
func (s *Store) ready(ti *termInfo) (*termInfo, error) {
	ti.transOnce.Do(func() {
		ti.trans, ti.transErr = s.sys.Steps(ti.proc)
		for _, t := range ti.trans {
			if !t.Act.IsOutput() {
				continue
			}
			if !slices.Contains(ti.barbs, t.Act.Subj) {
				ti.barbs = append(ti.barbs, t.Act.Subj)
			}
			ti.boundOut = ti.boundOut || len(t.Act.Bound) > 0
		}
		slices.Sort(ti.barbs)
	})
	if ti.transErr != nil {
		return nil, ti.transErr
	}
	return ti, nil
}

// freeNames returns the free names of ti, derived at the first call: only
// the labelled, one-step and congruence games read them. The set is shared;
// Clone it before mutating.
func (ti *termInfo) freeNames() names.Set {
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if ti.free == nil {
		ti.free = syntax.FreeNames(ti.proc)
	}
	return ti.free
}

// discardsOn reports whether the term ignores channel a (memoised).
func (s *Store) discardsOn(ti *termInfo, a names.Name) (bool, error) {
	ti.mu.Lock()
	v, ok := ti.discards[a]
	ti.mu.Unlock()
	s.derivs.count(ok)
	if ok {
		return v, nil
	}
	v, err := s.sys.Discards(ti.proc, a)
	if err != nil {
		return false, err
	}
	ti.mu.Lock()
	if ti.discards == nil {
		ti.discards = make(map[names.Name]bool)
	}
	ti.discards[a] = v
	ti.mu.Unlock()
	return v, nil
}

// succ returns the interned successors of ti under the moves of kind k, in
// transition order: its τ moves for kindTau, its τ and output moves for
// kindStep, an output with extruded names canonicalised deterministically.
// Memoised; the returned slice is shared.
func (s *Store) succ(ti *termInfo, k moveKind) ([]*termInfo, error) {
	ti.mu.Lock()
	out := ti.succs[k]
	ti.mu.Unlock()
	s.derivs.count(out != nil)
	if out != nil {
		return out, nil
	}
	out = []*termInfo{} // not nil: a term with no such move is memoised too
	for _, t := range ti.trans {
		if !t.Act.IsStep() || k == kindTau && t.Act.IsOutput() {
			continue
		}
		tgt := t.Target
		if len(t.Act.Bound) > 0 {
			_, tgt = semantics.CanonTrans(t.Act, t.Target)
		}
		succ, err := s.intern(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, succ)
	}
	ti.mu.Lock()
	ti.succs[k] = out
	ti.mu.Unlock()
	return out, nil
}

// eachOutput calls fn on ti's output moves in transition order, each
// labelled canonically against avoid. On a derivation fn sees each target
// right after it is interned, before the next one is: the store prints a
// term as it was first interned, so the terms fn interns from a target (a
// weak answer's τ-closure) must come before the next target for Reasons and
// certificates to keep their spelling. A term whose outputs are all free
// has labels and targets that do not depend on the pair: they are memoised
// on the term, computed outside ti.mu and published under it like succ.
// A bound output renames its extruded names away from avoid
// (semantics.CanonOut), so a term with one derives every output on each
// call. Lookups are not counted as derivations.
func (s *Store) eachOutput(ti *termInfo, avoid names.Set, fn func(outTarget) error) error {
	if !ti.boundOut {
		ti.mu.Lock()
		memo, ok := ti.outs, ti.outsOK
		ti.mu.Unlock()
		if ok {
			for _, o := range memo {
				if err := fn(o); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var out []outTarget
	for _, t := range ti.trans {
		if !t.Act.IsOutput() {
			continue
		}
		t = semantics.CanonOut(t, avoid)
		tgt, err := s.intern(t.Target)
		if err != nil {
			return err
		}
		o := outTarget{label: t.Act.String(), tgt: tgt}
		if err := fn(o); err != nil {
			return err
		}
		out = append(out, o)
	}
	if !ti.boundOut {
		ti.mu.Lock()
		ti.outs, ti.outsOK = out, true
		ti.mu.Unlock()
	}
	return nil
}

// closure returns every term reachable from ti by moves of kind k,
// including ti, sorted by canonical key. Memoised; the returned slice is
// shared. The sweep holds no term mutex, so mutually reachable terms cannot
// deadlock computing each other's closures; one that passes budget terms
// fails with ErrBudget.
func (s *Store) closure(ti *termInfo, k moveKind, budget int) ([]*termInfo, error) {
	ti.mu.Lock()
	cl := ti.closures[k]
	ti.mu.Unlock()
	s.derivs.count(cl != nil)
	if cl != nil {
		return cl, nil
	}
	seen := map[uint64]bool{ti.id: true}
	cl = []*termInfo{ti}
	work := []*termInfo{ti}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		next, err := s.succ(cur, k)
		if err != nil {
			return nil, err
		}
		for _, n := range next {
			if seen[n.id] {
				continue
			}
			if len(seen) >= budget {
				return nil, ErrBudget{closureOf[k]}
			}
			seen[n.id] = true
			cl = append(cl, n)
			work = append(work, n)
		}
	}
	sortTerms(cl)
	ti.mu.Lock()
	ti.closures[k] = cl
	ti.mu.Unlock()
	return cl, nil
}

// closureOf names a closure in its budget error.
var closureOf = [...]string{kindTau: "tau closure", kindStep: "autonomous closure"}

// receptions returns the input derivatives of ti at channel ch and the
// arity of payload, instantiated with payload. Not memoised: the payload
// tuple varies per call.
func (s *Store) receptions(ti *termInfo, ch names.Name, payload []names.Name) ([]*termInfo, error) {
	var out []*termInfo
	for _, t := range ti.trans {
		if !t.Act.IsInput() || t.Act.Subj != ch || len(t.Act.Objs) != len(payload) {
			continue
		}
		_, tgt := semantics.Instantiate(t, payload)
		succ, err := s.intern(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, succ)
	}
	return out, nil
}

// reactions returns the possible reactions of ti to an environment
// broadcast a(c̃): its receptions, plus ti itself when it discards a. An
// empty result means ti can neither receive nor ignore the message
// (ill-sorted usage).
func (s *Store) reactions(ti *termInfo, ch names.Name, payload []names.Name) ([]*termInfo, error) {
	out, err := s.receptions(ti, ch, payload)
	if err != nil {
		return nil, err
	}
	d, err := s.discardsOn(ti, ch)
	if err != nil {
		return nil, err
	}
	if d {
		out = append(out, ti)
	}
	return out, nil
}

// sortTerms orders terms by canonical key (deterministic across runs,
// unlike store IDs, which depend on interning order).
func sortTerms(ts []*termInfo) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].key < ts[j].key })
}
