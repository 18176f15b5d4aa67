package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bpi/internal/cert"
	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/service"
	"bpi/internal/syntax"
	"bpi/perfbench/stats"
)

// runtimeStats collects a program's allocation and GC figures per pass.
type runtimeStats struct {
	allocMB, allocObj, gcCycles, gcFrac []float64
}

func (rs *runtimeStats) add(allocBytes, allocObjects, gcCycles, gcFrac float64) {
	rs.allocMB = append(rs.allocMB, allocBytes/(1<<20))
	rs.allocObj = append(rs.allocObj, allocObjects)
	rs.gcCycles = append(rs.gcCycles, gcCycles)
	rs.gcFrac = append(rs.gcFrac, gcFrac)
}

// addMemStats adds the difference of two bpid runtime.MemStats readings;
// bpid's GC CPU fraction is only known since boot.
func (rs *runtimeStats) addMemStats(a, b map[string]float64) {
	rs.add(b["TotalAlloc"]-a["TotalAlloc"], b["Mallocs"]-a["Mallocs"], b["NumGC"]-a["NumGC"], b["GCCPUFraction"])
}

// set reports the medians over the passes.
func (rs *runtimeStats) set(r *run) {
	alloc, objs := stats.Median(rs.allocMB), stats.Median(rs.allocObj)
	cycles, gc := stats.Median(rs.gcCycles), stats.Median(rs.gcFrac)
	r.setLayer("runtime.alloc_mb", alloc, "MB")
	r.setLayer("runtime.alloc_objects", objs, "count")
	r.setLayer("runtime.gc_cycles", cycles, "count")
	r.setLayer("runtime.gc_cpu_frac", gc, "1")
	fmt.Printf("%-7s runtime per pass (median) alloc_mb=%.2f alloc_objects=%.0f gc_cycles=%.1f gc_cpu_frac=%.4f\n",
		r.workload, alloc, objs, cycles, gc)
}

// setEngine reports the engine time bpid measured on uncached answers.
func (r *run) setEngine(ms []float64) {
	p50, _ := stats.Percentile(ms, 50)
	r.setLayer("equiv.engine_p50_ms", p50, "ms")
	p99, err := stats.Percentile(ms, 99)
	if err == nil {
		r.setLayer("equiv.engine_p99_ms", p99, "ms")
		fmt.Printf("%-7s engine_p50_ms=%.4f engine_p99_ms=%.4f samples=%d\n", r.workload, p50, p99, len(ms))
	} else {
		fmt.Printf("%-7s engine_p50_ms=%.4f engine_p99_ms=n/a (%v)\n", r.workload, p50, err)
	}
}

// profiled runs the tracedPasses traced passes while bpid profiles itself
// for about as long, and returns the first traced pass's time and the
// profile.
func (r *run) profiled(ctx context.Context, d *daemon, untraced float64, pass func(i int) float64) (float64, []byte, error) {
	secs := int(untraced * tracedPasses)
	if secs < 1 {
		secs = 1
	}
	type got struct {
		data []byte
		err  error
	}
	ch := make(chan got, 1)
	go func() {
		data, err := d.profile(ctx, secs)
		ch <- got{data, err}
	}()
	var first float64
	for i := 0; i < tracedPasses; i++ {
		if dt := pass(i); i == 0 {
			first = dt
		}
	}
	g := <-ch
	return first, g.data, g.err
}

// inlineCert is a certificate a serve response carried inline.
type inlineCert struct {
	crt  *cert.Certificate
	span uint64
	req  uint64
}

// traceDaemon fills the per-layer metrics of serve and batch from the
// traced passes: the CPU profile, layer timings over the request terms,
// certificate replay, a ledger open of the fixture, and bpid's counters.
func (r *run) traceDaemon(ctx context.Context, d *daemon, fixture []fixtureEntry, fixDir string,
	queries []query, inline []inlineCert, overhead float64, prof []byte, decide, pairs float64) error {
	base := strings.TrimSuffix(r.traceOut, ".json")
	if err := os.MkdirAll(filepath.Dir(base), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	if err := r.setProfile(base + ".pprof"); err != nil {
		return err
	}
	r.setLayer("obs.overhead_frac", overhead, "1")
	r.setLayer("equiv.decide_s", decide, "s")
	r.setLayer("equiv.pairs", pairs, "count")
	srcs, terms, err := queryTerms(queries)
	if err != nil {
		return err
	}
	if err := r.termLayers(srcs, terms); err != nil {
		return err
	}

	// Certificates: every fixture record (what boot replays) and the
	// sampled inline certificates of serve.
	var ms, bytes []float64
	verify := func(c *cert.Certificate, parent, req uint64, what string) {
		data, err := c.Marshal()
		if err != nil {
			r.mismatch("%s certificate does not marshal: %v", what, err)
			return
		}
		sp := r.spans.begin("cert.verify", parent, req)
		t0 := time.Now()
		err = cert.Verify(c)
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		r.spans.end(sp, map[string]any{"source": what, "bytes": len(data)})
		bytes = append(bytes, float64(len(data)))
		if err != nil {
			r.mismatch("%s certificate rejected by cert.Verify: %v", what, err)
		}
	}
	for i, f := range fixture {
		verify(f.crt, 0, uint64(2_000_000+i), "fixture")
	}
	for _, c := range inline {
		verify(c.crt, c.span, c.req, "inline")
	}
	r.setLayer("cert.verify_ms", stats.Mean(ms), "ms")
	r.setLayer("cert.bytes", stats.Mean(bytes), "B")
	fmt.Printf("%-7s certificates verified=%d (fixture %d, inline %d)\n", r.workload, len(ms), len(fixture), len(inline))

	// ledger.Open on a copy of the fixture: the replay bpid does at boot.
	cp := filepath.Join(r.dir, "ledger-open")
	if err := copyDir(fixDir, cp); err != nil {
		return err
	}
	sp := r.spans.begin("ledger.open", 0, 3_000_000)
	t0 := time.Now()
	led, err := ledger.Open(cp, ledger.Config{MaxWait: -1})
	openS := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	st := led.Stats()
	r.spans.end(sp, map[string]any{"records": st.Records, "rejected": st.Rejected})
	if err := led.Close(); err != nil {
		return err
	}
	r.setLayer("ledger.open_s", openS, "s")
	r.setLayer("ledger.records", float64(st.Records), "count")
	r.setLayer("ledger.rejected", float64(st.Rejected), "count")
	if st.Rejected != 0 || st.Records != fixtureRecords {
		r.mismatch("fixture ledger opened with %d records, %d rejected (want %d, 0)", st.Records, st.Rejected, fixtureRecords)
	}

	// bpid's own counters.
	txt, err := d.client.Metrics(ctx)
	if err != nil {
		return err
	}
	m := parseProm(txt)
	r.setLayer("equiv.store_terms", m.sum("bpid_store_terms"), "count")
	ih, im := m.sum("bpid_store_intern_hits_total"), m.sum("bpid_store_intern_misses_total")
	dh, dm := m.sum("bpid_store_derivation_hits_total"), m.sum("bpid_store_derivation_misses_total")
	r.setLayer("equiv.intern_hit_ratio", ratio(ih, ih+im), "1")
	r.setLayer("equiv.deriv_hit_ratio", ratio(dh, dh+dm), "1")
	r.setLayer("cluster.admitted", m.sum("bpid_admission_admitted_total"), "count")
	shed := m.sum("bpid_admission_shed_total")
	r.setLayer("cluster.shed", shed, "count")
	r.setLayer("cluster.est_service_ms", m.sum("bpid_admission_est_service_seconds")*1e3, "ms")
	if shed != 0 {
		r.mismatch("bpid shed %.0f requests; the load never exceeds the CPU count", shed)
	}
	ls, raw, err := d.ledgerStats(ctx)
	if err != nil {
		return err
	}
	r.setLayer("ledger.appended", float64(ls.Stats.Appended), "count")
	r.setLayer("ledger.seals", float64(ls.Stats.Seals), "count")
	r.setLayer("ledger.seal_wait_s", ls.Stats.SealWaitSeconds, "s")
	r.setLayer("ledger.dropped", float64(ls.DroppedAppends), "count")
	fmt.Printf("%-7s program workers=%.0f (GOMAXPROCS of bpid)\n", r.workload, m.sum("bpid_workers"))

	if err := os.WriteFile(base+".metrics.txt", []byte(txt), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(base+".ledger-stats.json", raw, 0o644); err != nil {
		return err
	}
	counters := map[string]float64{}
	for k, v := range m {
		if strings.HasPrefix(k, "bpid_engine_events_total") || strings.HasPrefix(k, "bpid_store_") {
			counters[k] = v
		}
	}
	return r.spans.write(r.traceOut, counters)
}

// termLayers times the term layers over a workload's own inputs: the mean
// parser.Parse over sources, and the mean Simplify, Key and Steps over
// states. Every workload reports them through this one function.
func (r *run) termLayers(sources []string, states []syntax.Proc) error {
	t0 := time.Now()
	for _, s := range sources {
		if _, err := parser.Parse(s); err != nil {
			return err
		}
	}
	r.setLayer("parser.parse_us", perCallUs(time.Since(t0), len(sources)), "us")
	simplified := make([]syntax.Proc, len(states))
	t0 = time.Now()
	for i, p := range states {
		simplified[i] = syntax.Simplify(p)
	}
	r.setLayer("syntax.simplify_us", perCallUs(time.Since(t0), len(states)), "us")
	t0 = time.Now()
	for _, p := range simplified {
		_ = syntax.Key(p)
	}
	r.setLayer("syntax.key_us", perCallUs(time.Since(t0), len(states)), "us")
	sys := semantics.NewSystem(nil)
	var trans int
	t0 = time.Now()
	for _, p := range states {
		ts, err := sys.Steps(p)
		if err != nil {
			return err
		}
		trans += len(ts)
	}
	r.setLayer("semantics.steps_us", perCallUs(time.Since(t0), len(states)), "us")
	r.setLayer("semantics.trans_per_state", ratio(float64(trans), float64(len(states))), "count")
	fmt.Printf("%-7s layers over %d sources and %d states\n", r.workload, len(sources), len(states))
	return nil
}

func perCallUs(d time.Duration, n int) float64 {
	return ratio(float64(d.Nanoseconds())/1e3, float64(n))
}

// queryTerms returns the sources of the queries' terms and the terms.
func queryTerms(queries []query) ([]string, []syntax.Proc, error) {
	var srcs []string
	var ps []syntax.Proc
	for _, q := range queries {
		for _, s := range []string{q.P, q.Q} {
			p, err := parser.Parse(s)
			if err != nil {
				return nil, nil, err
			}
			srcs, ps = append(srcs, s), append(ps, p)
		}
	}
	return srcs, ps, nil
}

// ledgerStats reads GET /v1/ledger/stats.
func (d *daemon) ledgerStats(ctx context.Context) (*service.LedgerStatsResponse, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/v1/ledger/stats", nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := d.client.HTTP.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	var ls service.LedgerStatsResponse
	if err := json.Unmarshal(raw, &ls); err != nil {
		return nil, nil, fmt.Errorf("ledger stats: %w", err)
	}
	return &ls, raw, nil
}
