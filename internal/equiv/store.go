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
// strong barbs, free-output targets, the discard relation, τ-closures and
// autonomous closures.
//
// The store is sharded: term interning takes one mutex out of storeShards,
// chosen by a hash of the canonical key, so concurrent goroutines interning
// different terms rarely contend. Per-term derived data is computed
// singleflight-style — transitions under a sync.Once, closures by
// compute-unlocked-then-publish (a lost race recomputes an identical value,
// which keeps the lock graph acyclic even for τ-cyclic terms).
//
// Memoised slices are shared between callers and must not be mutated.
// Closures are returned sorted by canonical key, so every consumer sees the
// same deterministic order regardless of interning order.
type Store struct {
	sys    *semantics.System
	nextID atomic.Uint64
	shards [storeShards]shard

	// Occupancy / reuse counters, exposed by Stats. "Derivations" are the
	// memoised per-term lookups (discards, successor sets, closures): a hit
	// returns cached data, a miss recomputes it from the semantics.
	internHits   atomic.Uint64
	internMisses atomic.Uint64
	derivHits    atomic.Uint64
	derivMisses  atomic.Uint64

	// Mirror counters on an attached tracer (SetObs); nil — a no-op with
	// no atomic traffic — until a tracer is attached.
	obsInternHits, obsInternMisses *obs.Counter
	obsDerivHits, obsDerivMisses   *obs.Counter
}

// SetObs mirrors the store's reuse counters (store.intern_hits/misses,
// store.deriv_hits/misses) onto t, live rather than snapshot — so a
// daemon can export them per scrape. Attach before the store is shared
// across goroutines; a nil t detaches.
func (s *Store) SetObs(t *obs.Tracer) {
	s.obsInternHits = t.Counter("store.intern_hits")
	s.obsInternMisses = t.Counter("store.intern_misses")
	s.obsDerivHits = t.Counter("store.deriv_hits")
	s.obsDerivMisses = t.Counter("store.deriv_misses")
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
	// ShardMin / ShardMax bound the per-shard term counts (occupancy spread).
	ShardMin, ShardMax int
}

// Stats returns a consistent-enough snapshot of the store counters (each
// counter is read atomically; the set is not a single atomic snapshot).
func (s *Store) Stats() Stats {
	st := Stats{
		Terms:            s.nextID.Load(),
		InternHits:       s.internHits.Load(),
		InternMisses:     s.internMisses.Load(),
		DerivationHits:   s.derivHits.Load(),
		DerivationMisses: s.derivMisses.Load(),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n := len(sh.terms)
		sh.mu.Unlock()
		if i == 0 || n < st.ShardMin {
			st.ShardMin = n
		}
		if n > st.ShardMax {
			st.ShardMax = n
		}
	}
	return st
}

const storeShards = 64

type shard struct {
	mu    sync.Mutex
	terms map[string]*termInfo
}

// NewStore returns a store over the given system (nil means the empty
// definitions environment). The underlying semantics layer is pure — a
// System is immutable after construction and Steps/Discards share no mutable
// state — so one store may serve any number of goroutines.
func NewStore(sys *semantics.System) *Store {
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	s := &Store{sys: sys}
	for i := range s.shards {
		s.shards[i].terms = make(map[string]*termInfo)
	}
	return s
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
	free names.Set // free names; treat as immutable — Clone before mutating

	// trans is computed once, singleflight, on first demand, together with
	// barbs, the subjects of the output transitions (p ↓a), sorted, and
	// boundOut, whether any output extrudes a name.
	transOnce sync.Once
	trans     []semantics.Trans
	barbs     []names.Name
	boundOut  bool
	transErr  error

	// mu guards the lazily memoised fields below. Never held while calling
	// into the store for other terms.
	mu          sync.Mutex
	discards    map[names.Name]bool
	tauSuccs    []*termInfo
	tauSuccsOK  bool
	tauClosure  []*termInfo
	autoSuccs   []*termInfo
	autoSuccsOK bool
	autoClosure []*termInfo
	outs        []outTarget
	outsOK      bool
}

// outTarget is one output move: its canonical label and interned target.
type outTarget struct {
	label string
	tgt   *termInfo
}

func shardOf(key []byte) uint32 {
	// FNV-1a, inlined to avoid the hash.Hash allocation per intern.
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return h % storeShards
}

// keyBufs holds idle key buffers for intern. One that grew past
// maxPooledKey bytes is dropped instead, as syntax drops its key writers.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledKey = 64 << 10

// intern canonicalises p and returns its unique termInfo, computing the
// transitions singleflight. Concurrent interns of the same term return the
// same pointer. The key is written into a pooled buffer and the shard map
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
	if fresh {
		s.internMisses.Add(1)
		s.obsInternMisses.Add(1)
	} else {
		s.internHits.Add(1)
		s.obsInternHits.Add(1)
	}
	return s.ready(ti)
}

// resolve looks up (or creates) the termInfo of an already-simplified term
// with key k under its shard lock. It does NOT compute transitions — call
// ready.
func (s *Store) resolve(k []byte, p syntax.Proc) (ti *termInfo, fresh bool) {
	sh := &s.shards[shardOf(k)]
	sh.mu.Lock()
	ti, ok := sh.terms[string(k)]
	if !ok {
		key := string(k)
		ti = &termInfo{id: s.nextID.Add(1), proc: p, key: key, free: syntax.FreeNames(p)}
		sh.terms[key] = ti
	}
	sh.mu.Unlock()
	return ti, !ok
}

// ready computes ti's transitions and strong barbs singleflight (outside
// all shard locks) and surfaces any derivation error.
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

// discardsOn reports whether the term ignores channel a (memoised).
func (s *Store) discardsOn(ti *termInfo, a names.Name) (bool, error) {
	ti.mu.Lock()
	v, ok := ti.discards[a]
	ti.mu.Unlock()
	if ok {
		s.derivHits.Add(1)
		s.obsDerivHits.Add(1)
		return v, nil
	}
	s.derivMisses.Add(1)
	s.obsDerivMisses.Add(1)
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

// tauSucc returns the interned τ-successors of ti (memoised; shared slice).
func (s *Store) tauSucc(ti *termInfo) ([]*termInfo, error) {
	ti.mu.Lock()
	if ti.tauSuccsOK {
		out := ti.tauSuccs
		ti.mu.Unlock()
		s.derivHits.Add(1)
		s.obsDerivHits.Add(1)
		return out, nil
	}
	ti.mu.Unlock()
	s.derivMisses.Add(1)
	s.obsDerivMisses.Add(1)
	var out []*termInfo
	for _, t := range ti.trans {
		if !t.Act.IsTau() {
			continue
		}
		tgt, err := s.intern(t.Target)
		if err != nil {
			return nil, err
		}
		out = append(out, tgt)
	}
	ti.mu.Lock()
	ti.tauSuccs, ti.tauSuccsOK = out, true
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
// on the term, computed outside ti.mu and published under it like tauSucc.
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

// autonomousSucc returns the τ- and output-successors of ti, outputs with
// extruded names canonicalised deterministically (memoised; shared slice).
func (s *Store) autonomousSucc(ti *termInfo) ([]*termInfo, error) {
	ti.mu.Lock()
	if ti.autoSuccsOK {
		out := ti.autoSuccs
		ti.mu.Unlock()
		s.derivHits.Add(1)
		s.obsDerivHits.Add(1)
		return out, nil
	}
	ti.mu.Unlock()
	s.derivMisses.Add(1)
	s.obsDerivMisses.Add(1)
	var out []*termInfo
	for _, t := range ti.trans {
		if !t.Act.IsStep() {
			continue
		}
		tgt := t.Target
		if t.Act.IsOutput() && len(t.Act.Bound) > 0 {
			_, tgt = semantics.CanonTrans(t.Act, t.Target)
		}
		succ, err := s.intern(tgt)
		if err != nil {
			return nil, err
		}
		out = append(out, succ)
	}
	ti.mu.Lock()
	ti.autoSuccs, ti.autoSuccsOK = out, true
	ti.mu.Unlock()
	return out, nil
}

// tauClosure returns every term reachable from ti by τ* (including ti),
// sorted by canonical key. Memoised; the returned slice is shared.
func (s *Store) tauClosure(ti *termInfo, budget int) ([]*termInfo, error) {
	ti.mu.Lock()
	cl := ti.tauClosure
	ti.mu.Unlock()
	if cl != nil {
		s.derivHits.Add(1)
		s.obsDerivHits.Add(1)
		return cl, nil
	}
	s.derivMisses.Add(1)
	s.obsDerivMisses.Add(1)
	cl, err := s.closure(ti, budget, s.tauSucc, "tau closure")
	if err != nil {
		return nil, err
	}
	ti.mu.Lock()
	ti.tauClosure = cl
	ti.mu.Unlock()
	return cl, nil
}

// autonomousClosure returns the states reachable by (τ ∪ output)*, including
// ti, sorted by canonical key. Memoised; the returned slice is shared.
func (s *Store) autonomousClosure(ti *termInfo, budget int) ([]*termInfo, error) {
	ti.mu.Lock()
	cl := ti.autoClosure
	ti.mu.Unlock()
	if cl != nil {
		s.derivHits.Add(1)
		s.obsDerivHits.Add(1)
		return cl, nil
	}
	s.derivMisses.Add(1)
	s.obsDerivMisses.Add(1)
	cl, err := s.closure(ti, budget, s.autonomousSucc, "autonomous closure")
	if err != nil {
		return nil, err
	}
	ti.mu.Lock()
	ti.autoClosure = cl
	ti.mu.Unlock()
	return cl, nil
}

// closure is the shared reflexive-transitive reachability sweep. It runs
// without holding any term mutex, so mutually reachable terms cannot
// deadlock computing each other's closures.
func (s *Store) closure(ti *termInfo, budget int, succ func(*termInfo) ([]*termInfo, error), what string) ([]*termInfo, error) {
	seen := map[uint64]bool{ti.id: true}
	out := []*termInfo{ti}
	work := []*termInfo{ti}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		next, err := succ(cur)
		if err != nil {
			return nil, err
		}
		for _, n := range next {
			if seen[n.id] {
				continue
			}
			if len(seen) >= budget {
				return nil, ErrBudget{what}
			}
			seen[n.id] = true
			out = append(out, n)
			work = append(work, n)
		}
	}
	sortTerms(out)
	return out, nil
}

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
