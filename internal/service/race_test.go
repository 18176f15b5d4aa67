package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/parser"
	"bpi/internal/service"
)

// racePair is one equivalence query with its expected verdict, computed
// beforehand by a direct (in-process) Checker.
type racePair struct {
	p, q string
	rel  string
	weak bool
	want bool
}

// raceCorpus is a mix of related and unrelated pairs across the relations,
// asked by many goroutines at once: the pairs overlap in subterms on
// purpose.
var raceCorpus = []racePair{
	{p: "a?(x).x! + b!(c)", q: "a?(y).y! + b!(c)", rel: cert.RelLabelled},
	{p: "a! | b!", q: "a!.b! + b!.a!", rel: cert.RelLabelled},
	{p: "a! + a!", q: "a!", rel: cert.RelLabelled},
	{p: "a!.b!", q: "b!.a!", rel: cert.RelLabelled},
	{p: "t!.a! + t!.b!", q: "t!.(a! + b!)", rel: cert.RelLabelled},
	{p: "a?(x).x!", q: "a?(y).y!", rel: cert.RelBarbed},
	{p: "a! | a?", q: "a!", rel: cert.RelBarbed},
	{p: "a! | b!", q: "a!.b! + b!.a!", rel: cert.RelStep},
	{p: "a!", q: "b!", rel: cert.RelOneStep},
	{p: "a?(x).x!", q: "a?(y).y!", rel: cert.RelOneStep},
	{p: "a!(b)", q: "a!(c)", rel: cert.RelCongruence},
	{p: "a?(x).(x! | x!)", q: "a?(y).(y! | y!)", rel: cert.RelCongruence},
}

// TestConcurrentClientsMatchDirectChecker fires 32 concurrent clients at one
// daemon, each walking the corpus in a different order plus an interleaved
// prover request, and cross-checks every equivalence verdict against a
// direct Checker run. Exercised under -race in CI.
func TestConcurrentClientsMatchDirectChecker(t *testing.T) {
	// Expected verdicts from a direct in-process checker (fresh store).
	direct := equiv.NewChecker(nil)
	corpus := make([]racePair, len(raceCorpus))
	copy(corpus, raceCorpus)
	for i := range corpus {
		p, err := parser.Parse(corpus[i].p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.Parse(corpus[i].q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := direct.Decide(context.Background(), equiv.Query{Rel: corpus[i].rel, Weak: corpus[i].weak, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		corpus[i].want = r.Related
	}

	srv := service.New(service.Config{Workers: 8})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := bpi.NewClient(ts.URL)
			ctx := context.Background()
			for i := 0; i < len(corpus); i++ {
				pr := corpus[(i+g)%len(corpus)] // every client in a different order
				resp, err := cl.Equiv(ctx, bpi.EquivRequest{
					P: pr.p, Q: pr.q, Rel: pr.rel, Weak: pr.weak,
				})
				if err != nil {
					errs <- fmt.Errorf("client %d: %s %s vs %s: %v", g, pr.rel, pr.p, pr.q, err)
					return
				}
				if resp.Related != pr.want {
					errs <- fmt.Errorf("client %d: %s: %s vs %s: daemon=%v direct=%v",
						g, pr.rel, pr.p, pr.q, resp.Related, pr.want)
					return
				}
			}
			// Interleave the prover so the pool mixes workloads.
			pv, err := cl.Prove(ctx, bpi.ProveRequest{P: "a! + a!", Q: "a!"})
			if err != nil || !pv.Proved {
				errs <- fmt.Errorf("client %d: prove: %v (proved=%v)", g, err, pv != nil && pv.Proved)
				return
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	// Each decision ran on a store of its own, whose counters the store
	// series on /metrics sum: the engine must have interned terms.
	if v := metricValue(t, ts, "bpid_store_intern_misses_total"); v <= 0 {
		t.Errorf("bpid_store_intern_misses_total = %v after %d clients, want above 0", v, clients)
	}
}

// TestVerdictCacheSoundnessUnderLoad hammers a deliberately tiny verdict
// LRU (forcing constant eviction and recomputation) with query families
// that differ ONLY in the weak flag or the relation — the exact axes the
// cache key must separate. Every response, cached or cold, must carry the
// pre-computed direct verdict; a cross-flag collision or a stale entry
// surviving eviction would surface as a flipped verdict. Exercised under
// -race in CI.
func TestVerdictCacheSoundnessUnderLoad(t *testing.T) {
	// Families chosen so that flipping one key axis flips the verdict:
	//   tau.a! ~ a! is false strongly, true weakly (weak axis);
	//   b? | b?(x) vs 0 is labelled-true but onestep-false (relation axis,
	//   the mixed-arity stuck pair found by FuzzDecideAgree).
	corpus := []racePair{
		{p: "tau.a!", q: "a!", rel: cert.RelLabelled, weak: false, want: false},
		{p: "tau.a!", q: "a!", rel: cert.RelLabelled, weak: true, want: true},
		{p: "b? | b?(x)", q: "0", rel: cert.RelLabelled, weak: false, want: true},
		{p: "b? | b?(x)", q: "0", rel: cert.RelOneStep, weak: false, want: false},
		{p: "a! | b!", q: "a!.b! + b!.a!", rel: cert.RelLabelled, weak: false, want: true},
		{p: "a! | b!", q: "a!.b! + b!.a!", rel: cert.RelStep, weak: false, want: true},
		{p: "a! + a!", q: "a!", rel: cert.RelCongruence, weak: false, want: true},
		{p: "a!(b)", q: "a!(c)", rel: cert.RelCongruence, weak: false, want: false},
		{p: "a?(x).x!", q: "a?(y).y!", rel: cert.RelOneStep, weak: false, want: true},
		{p: "t!.a! + t!.b!", q: "t!.(a! + b!)", rel: cert.RelLabelled, weak: false, want: false},
	}
	// Double-check the hard-coded verdicts against a direct checker so the
	// test cannot silently rot if engine semantics evolve.
	direct := equiv.NewChecker(nil)
	for _, pr := range corpus {
		p, err := parser.Parse(pr.p)
		if err != nil {
			t.Fatal(err)
		}
		q, err := parser.Parse(pr.q)
		if err != nil {
			t.Fatal(err)
		}
		r, err := direct.Decide(context.Background(), equiv.Query{Rel: pr.rel, Weak: pr.weak, P: p, Q: q})
		if err != nil {
			t.Fatal(err)
		}
		got := r.Related
		if got != pr.want {
			t.Fatalf("corpus verdict for %s %s vs %s (weak=%v) is stale: direct=%v, hard-coded=%v",
				pr.rel, pr.p, pr.q, pr.weak, got, pr.want)
		}
	}

	// CacheSize 4 < len(corpus): the LRU churns the whole run through.
	srv := service.New(service.Config{Workers: 8, CacheSize: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const clients = 24
	const rounds = 4
	var wg sync.WaitGroup
	var cachedHits, flips int64
	var mu sync.Mutex
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := bpi.NewClient(ts.URL)
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				for i := 0; i < len(corpus); i++ {
					pr := corpus[(i+g+r)%len(corpus)]
					resp, err := cl.Equiv(ctx, bpi.EquivRequest{
						P: pr.p, Q: pr.q, Rel: pr.rel, Weak: pr.weak,
					})
					if err != nil {
						errs <- fmt.Errorf("client %d: %s %s vs %s: %v", g, pr.rel, pr.p, pr.q, err)
						return
					}
					mu.Lock()
					if resp.Cached {
						cachedHits++
					}
					if resp.Related != pr.want {
						flips++
					}
					mu.Unlock()
					if resp.Related != pr.want {
						errs <- fmt.Errorf("client %d: %s %s vs %s (weak=%v, cached=%v): daemon=%v direct=%v",
							g, pr.rel, pr.p, pr.q, pr.weak, resp.Cached, resp.Related, pr.want)
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	if flips != 0 {
		t.Errorf("%d verdicts flipped under cache churn", flips)
	}
	// With 24×4 walks over 10 pairs, some queries must have been served from
	// cache, or the test exercised nothing.
	if cachedHits == 0 {
		t.Error("no cached verdicts observed — cache path untested")
	}

	// Back-to-back repeats after the storm: the second query of a pair must
	// agree with the first whether or not it hits the (still churning) LRU.
	cl := bpi.NewClient(ts.URL)
	for _, pr := range corpus {
		first, err := cl.Equiv(context.Background(), bpi.EquivRequest{P: pr.p, Q: pr.q, Rel: pr.rel, Weak: pr.weak})
		if err != nil {
			t.Fatal(err)
		}
		second, err := cl.Equiv(context.Background(), bpi.EquivRequest{P: pr.p, Q: pr.q, Rel: pr.rel, Weak: pr.weak})
		if err != nil {
			t.Fatal(err)
		}
		if first.Related != pr.want || second.Related != first.Related {
			t.Errorf("%s %s vs %s (weak=%v): first=%v second=%v (cached=%v) want=%v",
				pr.rel, pr.p, pr.q, pr.weak, first.Related, second.Related, second.Cached, pr.want)
		}
	}
}
