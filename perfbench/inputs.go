package main

import (
	"context"
	"fmt"
	mrand "math/rand"
	"strconv"
	"sync"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/protocols"
	brand "bpi/internal/rand"
	"bpi/internal/stress"
	"bpi/internal/syntax"

	"bpi/perfbench/wire"
)

// Every input is derived from the workload seed; the program sees only the
// generated terms. Seeds vary names, rotations and random terms, never the
// amount of work, so figures from different seeds are comparable.

// ladderSpec is one rung before seeding: a pair and its pinned answer. The
// pair counts hold for every seed, because a bijective renaming of free
// names and a rotation of parallel components map the pair space onto an
// isomorphic one.
type ladderSpec struct {
	name  string
	rel   string
	weak  bool
	impl  syntax.Proc
	spec  syntax.Proc // nil: the rung compares impl with its own rotation
	pairs int
}

// Rung sizes put each query between 0.3 s and 1 s on a 2-CPU host, so one
// pass of all five is about 2.5 s.
func ladderSpecs() []ladderSpec {
	star := protocols.GossipStar(11, protocols.Fault{})
	elect := protocols.Election(6, protocols.Fault{})
	multi := protocols.Multicast(7, protocols.Fault{})
	return []ladderSpec{
		{name: "mesh-16", rel: "step", impl: stress.Mesh(16), pairs: 48802},
		{name: star.Name, rel: string(star.Rel), weak: star.Weak, impl: star.Impl, spec: star.Spec, pairs: 58369},
		{name: elect.Name, rel: string(elect.Rel), weak: elect.Weak, impl: elect.Impl, spec: elect.Spec, pairs: 33230},
		{name: multi.Name, rel: string(multi.Rel), weak: multi.Weak, impl: multi.Impl, spec: multi.Spec, pairs: 32895},
		{name: "rings-3x2", rel: "labelled", impl: stress.Rings(3, 2), pairs: 2197},
	}
}

// ladderRungs seeds the five rungs: each gets its implementation's parallel
// components rotated a seeded number of times and a seeded permutation of
// its free names.
func ladderRungs(seed int64) []wire.Rung {
	rng := mrand.New(mrand.NewSource(seed))
	var out []wire.Rung
	for _, s := range ladderSpecs() {
		impl := rotate(s.impl, 1+rng.Intn(len(syntax.ParList(s.impl))))
		spec := s.spec
		if spec == nil {
			spec = s.impl
		}
		ps := permuteFree(rng, impl, spec)
		out = append(out, wire.Rung{Name: s.name, Rel: s.rel, Weak: s.weak,
			P: syntax.String(ps[0]), Q: syntax.String(ps[1]), Want: true, Pairs: s.pairs})
	}
	return out
}

// rotate rotates p's top-level parallel components k times.
func rotate(p syntax.Proc, k int) syntax.Proc {
	for i := 0; i < k; i++ {
		p = stress.Rotate(p)
	}
	return p
}

// permuteFree applies one seeded bijection of the joint free names to every
// term. Names keep their lengths, so canonical keys keep their sizes.
func permuteFree(rng *mrand.Rand, ps ...syntax.Proc) []syntax.Proc {
	fn := names.NewSet()
	for _, p := range ps {
		fn = fn.Union(syntax.FreeNames(p))
	}
	olds := fn.Sorted()
	news := append([]names.Name(nil), olds...)
	rng.Shuffle(len(news), func(i, j int) { news[i], news[j] = news[j], news[i] })
	sub := names.FromSlices(olds, news)
	out := make([]syntax.Proc, len(ps))
	for i, p := range ps {
		out[i] = syntax.Apply(p, sub)
	}
	return out
}

// suffixFree renames every free name x of the terms to x_<tag>, which makes
// the pair distinct from every pair with another tag.
func suffixFree(tag int, ps ...syntax.Proc) []syntax.Proc {
	fn := names.NewSet()
	for _, p := range ps {
		fn = fn.Union(syntax.FreeNames(p))
	}
	olds := fn.Sorted()
	news := make([]names.Name, len(olds))
	for i, n := range olds {
		news[i] = names.Name(string(n) + "_" + strconv.Itoa(tag))
	}
	sub := names.FromSlices(olds, news)
	out := make([]syntax.Proc, len(ps))
	for i, p := range ps {
		out[i] = syntax.Apply(p, sub)
	}
	return out
}

// query is one daemon equivalence question with its known answer.
type query struct {
	Source string `json:"source"` // catalogue, corpus, equiv or break
	Rel    string `json:"rel"`
	Weak   bool   `json:"weak,omitempty"`
	P      string `json:"p"`
	Q      string `json:"q"`
	Want   bool   `json:"want"`
}

// maxQueryPairs caps the work of one daemon query: a catalogue or corpus
// pair enters the streams only if a local sequential checker decides it
// within this many pairs, so nothing the size of a ladder rung reaches
// serve or batch.
const maxQueryPairs = 2000

var allRels = []string{"labelled", "barbed", "step", "onestep", "congruence"}

// queryBlock fixes the sources of every block of four queries, so each pass
// of a workload asks for the same amount of work whatever the seed. The
// repository records no traffic, so no source is weighted above another:
// each block holds one query of each.
//
//	catalogue  protocols.Catalogue() at each scenario's relation, want WantEquiv
//	corpus     stress.Corpus() rotations under strong step or barbed, want related
//	equiv      rand MutateEquiv pairs, any relation strong or weak, want related
//	break      rand MutateBreak pairs, any relation strong, want unrelated
//
// Within a source the scenario, corpus instance and relation advance in
// turn; the seed orders each block and draws names, rotations and terms.
var queryBlock = []string{"catalogue", "corpus", "equiv", "break"}

// corpusRels are the corpus relations; the weak ones cost rings-3x2 tens of
// milliseconds and are left out.
var corpusRels = []string{"step", "barbed"}

// queryGen draws known-answer queries, each distinct (by canonical pair
// key) from every query drawn before it.
type queryGen struct {
	rng    *mrand.Rand
	small  *brand.Gen // labelled, barbed, step
	oracle *brand.Gen // onestep, congruence: the prover-friendly fragment
	cat    []protocols.Scenario
	corpus []stress.Config
	seen   map[string]bool
	block  []string       // sources left in the current block
	drawn  map[string]int // queries drawn so far per source
	tag    int
}

func newQueryGen(seed int64) *queryGen {
	return &queryGen{
		rng:    mrand.New(mrand.NewSource(seed)),
		small:  brand.New(seed+1, brand.Default()),
		oracle: brand.New(seed+2, brand.OracleConfig()),
		cat:    cappedCatalogue(),
		corpus: cappedCorpus(),
		seen:   map[string]bool{},
		drawn:  map[string]int{},
	}
}

// cappedCatalogue returns the catalogue scenarios within maxQueryPairs.
var cappedCatalogue = sync.OnceValue(func() []protocols.Scenario {
	var out []protocols.Scenario
	for _, s := range protocols.Catalogue() {
		chk := equiv.NewChecker(nil)
		chk.MaxPairs = maxQueryPairs
		if r, err := protocols.Decide(chk, s); err == nil && r.Related == s.WantEquiv {
			out = append(out, s)
		}
	}
	return out
})

// cappedCorpus returns the stress corpus instances within maxQueryPairs.
var cappedCorpus = sync.OnceValue(func() []stress.Config {
	var out []stress.Config
	for _, c := range stress.Corpus() {
		chk := equiv.NewChecker(nil)
		chk.MaxPairs = maxQueryPairs
		if r, err := chk.Step(c.P, c.Q, false); err == nil && r.Related {
			out = append(out, c)
		}
	}
	return out
})

// next draws the next distinct query.
func (g *queryGen) next() query {
	if len(g.block) == 0 {
		g.block = append([]string(nil), queryBlock...)
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	src := g.block[0]
	g.block = g.block[1:]
	i := g.drawn[src]
	g.drawn[src]++
	for {
		q := g.draw(src, i)
		k, err := pairKey(q)
		if err != nil {
			panic(fmt.Sprintf("generated query does not parse: %v", err)) // a generator bug
		}
		if !g.seen[k] {
			g.seen[k] = true
			return q
		}
	}
}

// draw builds the i-th query of a source.
func (g *queryGen) draw(src string, i int) query {
	switch src {
	case "catalogue":
		s := g.cat[i%len(g.cat)]
		g.tag++
		ps := suffixFree(g.tag, rotate(s.Impl, g.rng.Intn(4)), s.Spec)
		return g.orient(query{Source: src, Rel: string(s.Rel), Weak: s.Weak,
			P: syntax.String(ps[0]), Q: syntax.String(ps[1]), Want: s.WantEquiv})
	case "corpus":
		c := g.corpus[i%len(g.corpus)]
		g.tag++
		ps := suffixFree(g.tag, c.P, rotate(c.Q, g.rng.Intn(4)))
		return g.orient(query{Source: src, Rel: corpusRels[i/len(g.corpus)%len(corpusRels)],
			P: syntax.String(ps[0]), Q: syntax.String(ps[1]), Want: true})
	case "equiv":
		rel := allRels[i%len(allRels)]
		gen := g.gen(rel)
		p := gen.Term()
		return g.orient(query{Source: src, Rel: rel, Weak: i/len(allRels)%2 == 1,
			P: syntax.String(p), Q: syntax.String(gen.MutateEquiv(p)), Want: true})
	default:
		rel := allRels[i%len(allRels)]
		gen := g.gen(rel)
		p := gen.Term()
		return g.orient(query{Source: src, Rel: rel,
			P: syntax.String(p), Q: syntax.String(gen.MutateBreak(p)), Want: false})
	}
}

func (g *queryGen) gen(rel string) *brand.Gen {
	if rel == "onestep" || rel == "congruence" {
		return g.oracle
	}
	return g.small
}

// orient swaps the sides of half the queries: every relation is symmetric.
func (g *queryGen) orient(q query) query {
	if g.rng.Intn(2) == 1 {
		q.P, q.Q = q.Q, q.P
	}
	return q
}

// pairKey is the daemon's canonical pair key of q (relation, mode and the
// ordered alpha-class keys of the simplified terms).
func pairKey(q query) (string, error) {
	p, err := parser.Parse(q.P)
	if err != nil {
		return "", err
	}
	r, err := parser.Parse(q.Q)
	if err != nil {
		return "", err
	}
	return ledger.PairKey(q.Rel, q.Weak, syntax.Key(syntax.Simplify(p)), syntax.Key(syntax.Simplify(r))), nil
}

// verdict is a local certified decision of one query, computed the way the
// daemon computes it: a sequential certifying checker with default budgets.
type verdict struct {
	related bool
	pairs   int
	reason  string
	crt     *cert.Certificate
}

func decideLocal(q query) (verdict, error) {
	p, err := parser.Parse(q.P)
	if err != nil {
		return verdict{}, err
	}
	r, err := parser.Parse(q.Q)
	if err != nil {
		return verdict{}, err
	}
	chk := equiv.NewChecker(nil)
	chk.Certify = true
	ctx := context.Background()
	var res equiv.Result
	switch q.Rel {
	case "labelled":
		res, err = chk.LabelledCtx(ctx, p, r, q.Weak)
	case "barbed":
		res, err = chk.BarbedCtx(ctx, p, r, q.Weak)
	case "step":
		res, err = chk.StepCtx(ctx, p, r, q.Weak)
	case "onestep":
		crt, ok, err := chk.OneStepCertCtx(ctx, p, r, q.Weak)
		return verdict{related: ok, crt: crt}, err
	case "congruence":
		crt, ok, err := chk.CongruenceBoundedCertCtx(ctx, p, r, q.Weak, 0)
		return verdict{related: ok, crt: crt}, err
	default:
		return verdict{}, fmt.Errorf("unknown relation %q", q.Rel)
	}
	return verdict{related: res.Related, pairs: res.Pairs, reason: res.Reason, crt: res.Cert}, err
}

// fixtureRecords is the size of the ledger every daemon boots over. It is a
// constant, so the replay work in setup_s does not depend on the seed.
const fixtureRecords = 1024

// fixtureEpoch stamps fixture records in place of the wall clock, so one
// seed writes the same record bytes on every run.
const fixtureEpoch = int64(1_700_000_000_000_000_000)

// buildFixture decides the first fixtureRecords queries of g locally,
// checks each against its known answer, and appends them to a fresh ledger
// in dir with ledger.NewRecord/Append. Timed sealing is off, so batch
// boundaries depend only on the record count.
func buildFixture(dir string, g *queryGen) ([]fixtureEntry, error) {
	led, err := ledger.Open(dir, ledger.Config{MaxWait: -1})
	if err != nil {
		return nil, err
	}
	out := make([]fixtureEntry, 0, fixtureRecords)
	for i := 0; i < fixtureRecords; i++ {
		q := g.next()
		v, err := decideLocal(q)
		if err != nil {
			led.Close()
			return nil, fmt.Errorf("fixture query %d: %w", i, err)
		}
		if v.related != q.Want {
			led.Close()
			return nil, fmt.Errorf("fixture query %d (%s %s): related=%v, known answer %v", i, q.Source, q.Rel, v.related, q.Want)
		}
		rec, err := ledger.NewRecord(q.Rel, q.Weak, 0, 0, 0, v.related, v.pairs, v.reason, v.crt)
		if err != nil {
			led.Close()
			return nil, err
		}
		rec.UnixNano = fixtureEpoch + int64(i)
		if _, err := led.Append(rec); err != nil {
			led.Close()
			return nil, err
		}
		out = append(out, fixtureEntry{q: q, crt: v.crt})
	}
	return out, led.Close()
}

// fixtureEntry is one fixture record as the benchmark knows it.
type fixtureEntry struct {
	q   query
	crt *cert.Certificate
}
