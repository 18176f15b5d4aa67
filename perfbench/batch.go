package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"bpi"
	"bpi/perfbench/stats"
)

// The batch workload: one client pushing fresh questions in bulk on one
// connection. Every pair is distinct from every other pair of the run and
// from the fixture, so every item misses the verdict cache, runs the
// engine, enters the cache and is appended to the ledger.
const (
	// batchSize stays within bpid's default admission bound (2 workers
	// plus a 64-deep queue), so no pair is shed.
	batchSize      = 64
	batchesPerPass = 6
	// batchPassTime is the nominal time of one pass on the reference host.
	batchPassTime = 300 * time.Millisecond
	// batchMaxPasses bounds the passes of one run (warm-up, timed, extra
	// and traced): bpid keeps every interned term and ledger record of a
	// run in memory, so the pair count, not the clock, must bound a run.
	batchMaxPasses = 20
)

// batchPass posts the pass's batches one after another and returns the
// per-batch latencies, the engine times of the items and the client-minus-
// handler time of each batch.
func (r *run) batchPass(ctx context.Context, d *daemon, qs []query, reqBase uint64, traced bool) (lat, engine, overhead []float64, pairs int) {
	var log *spanLog
	if traced {
		log = r.spans
	}
	for b := 0; b*batchSize < len(qs); b++ {
		part := qs[b*batchSize : min(len(qs), (b+1)*batchSize)]
		req := bpi.BatchRequest{Pairs: make([]bpi.EquivRequest, len(part))}
		for i, q := range part {
			req.Pairs[i] = bpi.EquivRequest{P: q.P, Q: q.Q, Rel: q.Rel, Weak: q.Weak}
		}
		sp := log.begin("batch.request", 0, reqBase+uint64(b))
		rctx, cancel := context.WithTimeout(ctx, time.Minute)
		t0 := time.Now()
		res, err := d.client.Batch(rctx, req)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		cancel()
		r.attempted += len(part)
		if err != nil {
			r.failed += len(part)
			fmt.Printf("batch   request failed: %v\n", err)
			log.end(sp, map[string]any{"error": err.Error()})
			continue
		}
		log.end(sp, map[string]any{"pairs": len(part), "handler_ms": res.Trailer.ElapsedMs})
		lat = append(lat, ms)
		overhead = append(overhead, ms-res.Trailer.ElapsedMs)
		if len(res.Items) != len(part) {
			r.mismatch("batch returned %d items for %d pairs", len(res.Items), len(part))
			continue
		}
		for i, it := range res.Items {
			switch {
			case it.Error != nil:
				r.failed++
				if r.failed <= 5 {
					fmt.Printf("batch   item failed: %s: %s\n", it.Error.Code, it.Error.Message)
				}
			case !r.checkVerdict("batch", part[i], it.Equiv.Related):
			case it.Equiv.Cached:
				r.mismatch("batch pair %q/%q was answered from the cache; every batch pair must be fresh", part[i].P, part[i].Q)
			default:
				engine = append(engine, it.Equiv.ElapsedMs)
				pairs += it.Equiv.Pairs
			}
		}
	}
	return lat, engine, overhead, pairs
}

// nextQueries draws n fresh queries.
func nextQueries(g *queryGen, n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = g.next()
	}
	return qs
}

// runBatch measures the daemon's write path.
func runBatch(r *run) error {
	ctx := context.Background()
	gen := newQueryGen(r.seed)
	fixDir := filepath.Join(r.dir, "fixture")
	fixture, err := buildFixture(fixDir, gen)
	if err != nil {
		return err
	}
	bt := &boots{r: r, fixture: fixDir}
	d, err := bt.boot(1)
	if err != nil {
		return err
	}
	defer d.stop()
	const perPass = batchSize * batchesPerPass

	r.batchPass(ctx, d, nextQueries(gen, perPass), 0, false) // untimed warm-up

	var lat, engine, overhead []float64
	var rt runtimeStats
	n := r.passCount(batchPassTime, batchMaxPasses-1-tracedPasses)
	ps, err := r.runPasses(n, daemonBoots-1, bt.probe, func(k int) (passSample, string, error) {
		qs := nextQueries(gen, perPass)
		ms0, err := d.memStats(ctx)
		if err != nil {
			return passSample{}, "", err
		}
		var l, e, o []float64
		s, err := timePass(d.c.pid(), func() error {
			l, e, o, _ = r.batchPass(ctx, d, qs, 0, false)
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
		lat, engine, overhead = append(lat, l...), append(engine, e...), append(overhead, o...)
		return s, fmt.Sprintf("pairs/s=%.0f", perPass/s.wall), nil
	})
	if err != nil {
		return err
	}
	bt.set()
	untraced := ps.wall(n)
	fmt.Printf("batch   pairs_per_s=%.1f (median pass, %d pairs)\n", perPass/untraced, perPass)
	rt.set(r)
	r.setEngine(engine)
	bp50, _ := stats.Percentile(lat, 50)
	r.setLayer("service.batch_p50_ms", bp50, "ms")
	ov, _ := stats.Percentile(overhead, 50)
	r.setLayer("service.overhead_p50_ms", ov, "ms")
	if !r.traced {
		return nil
	}

	var traced []query
	var decide, pairs float64
	tracedS, prof, err := r.profiled(ctx, d, untraced, func(i int) float64 {
		qs := nextQueries(gen, perPass)
		t0 := time.Now()
		_, e, _, n := r.batchPass(ctx, d, qs, uint64(i+1)*1_000_000, true)
		dt := time.Since(t0).Seconds()
		if i == 0 {
			traced, pairs = qs, float64(n)
			for _, x := range e {
				decide += x / 1e3
			}
		}
		return dt
	})
	if err != nil {
		return err
	}
	return r.traceDaemon(ctx, d, fixture, fixDir, traced, nil, tracedS/untraced-1, prof, decide, pairs)
}
