package main

import (
	"context"
	"fmt"
	mrand "math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bpi"
	"bpi/perfbench/stats"
)

// The serve workload: many users asking small questions of one daemon, in a
// closed loop on serveConns connections (one per CPU of the reference
// host), so the load never queues beyond the worker pool. A pass is
// servePassSize requests; its mix is fixed, its content seeded.
//
// The repository records no traffic, so the mix is chosen, each share for
// what it makes the pass exercise. Fresh queries are cache misses that run
// the engine; the rest are hits, half exact repeats of fresh queries from
// earlier passes (entries the engine inserted), half re-queries of fixture
// pairs (entries the ledger replay warmed), so neither door into the cache
// is favoured. One request in ten asks for the certificate inline, which
// adds certificate JSON to the hit path.
const (
	serveConns    = 2
	servePassSize = 4000
	// servePassTime is the nominal time of one pass on the reference host.
	servePassTime = 700 * time.Millisecond
	// serveMaxPasses bounds the passes of one run: warm-up, timed, extra
	// and traced passes.
	serveMaxPasses = 48
	// verdictCacheEntries is the default size of bpid's verdict cache.
	verdictCacheEntries = 4096
	// serveFresh is the most fresh queries per pass for which the fixture
	// and every fresh verdict of a run fit the verdict cache, so no hit
	// ever turns into a miss by eviction.
	serveFresh   = (verdictCacheEntries - fixtureRecords) / serveMaxPasses
	serveRepeats = (servePassSize - serveFresh) / 2
	certPerPass  = servePassSize / 10
	// tracedPasses is how many traced passes the traced run keeps in
	// reserve.
	tracedPasses = 3
)

// serveReq is one request of a serve pass.
type serveReq struct {
	q    query
	kind string // fresh, repeat or fixture
	cert bool
}

// servePlan builds the passes of a serve run from the seed.
type servePlan struct {
	rng     *mrand.Rand
	gen     *queryGen
	fixture []fixtureEntry
	order   []int   // fixture re-queries walk this permutation cyclically
	next    int     // position in order
	issued  []query // fresh queries of earlier passes
}

func newServePlan(seed int64, gen *queryGen, fixture []fixtureEntry) *servePlan {
	rng := mrand.New(mrand.NewSource(seed + 7))
	return &servePlan{rng: rng, gen: gen, fixture: fixture, order: rng.Perm(len(fixture))}
}

// pass returns pass k (0 is the warm-up, which has no repeats yet).
func (p *servePlan) pass(k int) []serveReq {
	reqs := make([]serveReq, 0, servePassSize)
	var fresh []query
	for i := 0; i < serveFresh; i++ {
		q := p.gen.next()
		fresh = append(fresh, q)
		reqs = append(reqs, serveReq{q: q, kind: "fresh"})
	}
	if k > 0 {
		for i := 0; i < serveRepeats; i++ {
			reqs = append(reqs, serveReq{q: p.issued[p.rng.Intn(len(p.issued))], kind: "repeat"})
		}
	}
	for len(reqs) < servePassSize {
		reqs = append(reqs, serveReq{q: p.fixture[p.order[p.next%len(p.order)]].q, kind: "fixture"})
		p.next++
	}
	p.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for _, i := range p.rng.Perm(len(reqs))[:certPerPass] {
		reqs[i].cert = true
	}
	p.issued = append(p.issued, fresh...)
	return reqs
}

// serveResult is what one pass observed, per request.
type serveResult struct {
	lat   []float64 // client-observed ms
	resp  []*bpi.EquivResponse
	err   []error
	spans []uint64 // serve.request span ids (traced passes)
}

// servePass sends reqs on serveConns connections, each sending its next
// request only after the previous answer.
func (r *run) servePass(ctx context.Context, d *daemon, reqs []serveReq, reqBase uint64, traced bool) serveResult {
	n := len(reqs)
	res := serveResult{lat: make([]float64, n), resp: make([]*bpi.EquivResponse, n), err: make([]error, n), spans: make([]uint64, n)}
	var log *spanLog
	if traced {
		log = r.spans
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				q := reqs[i]
				sp := log.begin("serve.request", 0, reqBase+uint64(i))
				rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				t0 := time.Now()
				resp, err := d.client.Equiv(rctx, bpi.EquivRequest{P: q.q.P, Q: q.q.Q, Rel: q.q.Rel, Weak: q.q.Weak, Cert: q.cert})
				res.lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				cancel()
				res.resp[i], res.err[i], res.spans[i] = resp, err, sp.ID
				if traced {
					args := map[string]any{"kind": q.kind, "rel": q.q.Rel}
					if err == nil {
						args["cached"], args["elapsed_ms"] = resp.Cached, resp.ElapsedMs
					}
					log.end(sp, args)
				}
			}
		}()
	}
	wg.Wait()
	return res
}

// check counts failures and wrong verdicts of one pass.
func (r *run) checkServe(reqs []serveReq, res serveResult) {
	r.attempted += len(reqs)
	for i, q := range reqs {
		if res.err[i] != nil {
			r.failed++
			if r.failed <= 5 {
				fmt.Printf("serve   request failed: %v\n", res.err[i])
			}
			continue
		}
		r.checkVerdict("serve "+q.kind, q.q, res.resp[i].Related)
		if q.cert && res.resp[i].Certificate == nil {
			r.mismatch("serve %s: cert requested but not returned", q.kind)
		}
	}
}

// checkVerdict compares a daemon verdict with the query's known answer.
func (r *run) checkVerdict(where string, q query, related bool) bool {
	if related != q.Want {
		r.mismatch("%s %s %s weak=%v: related=%v, known answer %v (p=%q q=%q)",
			where, q.Source, q.Rel, q.Weak, related, q.Want, q.P, q.Q)
		return false
	}
	return true
}

// runServe measures the daemon's read path.
func runServe(r *run) error {
	ctx := context.Background()
	gen := newQueryGen(r.seed)
	fixDir := filepath.Join(r.dir, "fixture")
	fixture, err := buildFixture(fixDir, gen)
	if err != nil {
		return err
	}
	bt := &boots{r: r, fixture: fixDir}
	d, err := bt.boot(serveConns)
	if err != nil {
		return err
	}
	defer d.stop()
	plan := newServePlan(r.seed, gen, fixture)

	warm := plan.pass(0)
	r.checkServe(warm, r.servePass(ctx, d, warm, 0, false))

	m0, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	var lat, engine, overhead []float64
	var rt runtimeStats
	n := r.passCount(servePassTime, serveMaxPasses-1-tracedPasses)
	ps, err := r.runPasses(n, daemonBoots-1, bt.probe, func(k int) (passSample, string, error) {
		reqs := plan.pass(k)
		ms0, err := d.memStats(ctx)
		if err != nil {
			return passSample{}, "", err
		}
		var res serveResult
		s, err := timePass(d.c.pid(), func() error {
			res = r.servePass(ctx, d, reqs, 0, false)
			return nil
		})
		if err != nil {
			return passSample{}, "", err
		}
		ms1, err := d.memStats(ctx)
		if err != nil {
			return passSample{}, "", err
		}
		rt.addMemStats(ms0, ms1)
		r.checkServe(reqs, res)
		lat = append(lat, res.lat...)
		for i, resp := range res.resp {
			if res.err[i] != nil {
				continue
			}
			if !resp.Cached {
				engine = append(engine, resp.ElapsedMs)
			}
			overhead = append(overhead, res.lat[i]-resp.ElapsedMs)
		}
		return s, fmt.Sprintf("req/s=%.0f", float64(len(reqs))/s.wall), nil
	})
	if err != nil {
		return err
	}
	bt.set()
	m1, err := d.scrape(ctx)
	if err != nil {
		return err
	}
	rt.set(r)

	p50, _ := stats.Percentile(lat, 50)
	r.setLayer("service.latency_p50_ms", p50, "ms")
	p99, err99 := stats.Percentile(lat, 99)
	if err99 == nil {
		r.setLayer("service.latency_p99_ms", p99, "ms")
		fmt.Printf("serve   latency_p50_ms=%.4f latency_p99_ms=%.4f samples=%d\n", p50, p99, len(lat))
	} else {
		fmt.Printf("serve   latency_p50_ms=%.4f latency_p99_ms=n/a (%v)\n", p50, err99)
	}
	r.setEngine(engine)
	ov, _ := stats.Percentile(overhead, 50)
	r.setLayer("service.overhead_p50_ms", ov, "ms")
	hits := m1.sum("bpid_verdict_cache_hits_total") - m0.sum("bpid_verdict_cache_hits_total")
	misses := m1.sum("bpid_verdict_cache_misses_total") - m0.sum("bpid_verdict_cache_misses_total")
	r.setLayer("service.cache_hit_ratio", ratio(hits, hits+misses), "1")
	fmt.Printf("serve   cache hits=%.0f misses=%.0f\n", hits, misses)
	if !r.traced {
		return nil
	}

	// Traced passes under a CPU profile of bpid; inline certificates of
	// the first traced pass are replayed by the independent verifier.
	var tracedReqs []serveReq
	var tracedRes []serveResult
	untraced := ps.wall(n)
	tracedS, prof, err := r.profiled(ctx, d, untraced, func(i int) float64 {
		reqs := plan.pass(len(ps.samples) + 1 + i)
		t0 := time.Now()
		res := r.servePass(ctx, d, reqs, uint64(i+1)*1_000_000, true)
		dt := time.Since(t0).Seconds()
		r.checkServe(reqs, res)
		tracedReqs = append(tracedReqs, reqs...)
		tracedRes = append(tracedRes, res)
		return dt
	})
	if err != nil {
		return err
	}
	first := tracedRes[0]
	var decide, pairs float64
	for _, resp := range first.resp {
		if resp != nil && !resp.Cached {
			decide += resp.ElapsedMs / 1e3
			pairs += float64(resp.Pairs)
		}
	}
	var inline []inlineCert
	for i, resp := range first.resp {
		if resp != nil && resp.Certificate != nil {
			inline = append(inline, inlineCert{crt: resp.Certificate, span: first.spans[i], req: uint64(1_000_000 + i)})
		}
	}
	rng := mrand.New(mrand.NewSource(r.seed + 11))
	rng.Shuffle(len(inline), func(i, j int) { inline[i], inline[j] = inline[j], inline[i] })
	if len(inline) > 64 {
		inline = inline[:64]
	}
	return r.traceDaemon(ctx, d, fixture, fixDir, tracedReqsQueries(tracedReqs), inline,
		tracedS/untraced-1, prof, decide, pairs)
}

func tracedReqsQueries(reqs []serveReq) []query {
	out := make([]query, len(reqs))
	for i, q := range reqs {
		out[i] = q.q
	}
	return out
}
