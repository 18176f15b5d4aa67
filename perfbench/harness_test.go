package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"bpi/internal/ledger"
	"bpi/perfbench/wire"
)

func newTestRun() *run {
	return &run{workload: "test", e2e: map[string]metric{}, layer: map[string]metric{}}
}

func TestKnownAnswerRejectsFlippedVerdict(t *testing.T) {
	q := query{Source: "break", Rel: "step", P: "a!", Q: "tau.a!", Want: false}
	r := newTestRun()
	if !r.checkVerdict("serve", q, false) || len(r.wrong) != 0 {
		t.Fatalf("a correct verdict was rejected: %v", r.wrong)
	}
	if r.checkVerdict("serve", q, true) || len(r.wrong) != 1 {
		t.Fatalf("a flipped verdict was accepted")
	}
	if r.report() == 0 {
		t.Fatal("a run with a wrong answer must exit non-zero")
	}

	rungs := []wire.Rung{{Name: "mesh", Want: true, Pairs: 10}}
	r = newTestRun()
	r.checkRungs(rungs, []wire.RungResult{{Name: "mesh", Related: true, Pairs: 10}})
	if len(r.wrong) != 0 {
		t.Fatalf("a correct rung was rejected: %v", r.wrong)
	}
	r.checkRungs(rungs, []wire.RungResult{{Name: "mesh", Related: false, Pairs: 10}})
	r.checkRungs(rungs, []wire.RungResult{{Name: "mesh", Related: true, Pairs: 11}})
	if len(r.wrong) != 2 {
		t.Fatalf("flipped verdict and wrong pair count: %d mismatches, want 2", len(r.wrong))
	}
}

// TestKnownAnswersHold decides the head of a query stream locally: every
// source's known answer must be the engine's verdict.
func TestKnownAnswersHold(t *testing.T) {
	g := newQueryGen(5)
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		q := g.next()
		v, err := decideLocal(q)
		if err != nil {
			t.Fatalf("query %d (%s %s): %v", i, q.Source, q.Rel, err)
		}
		if v.related != q.Want {
			t.Fatalf("query %d (%s %s weak=%v %q %q): related=%v, known answer %v",
				i, q.Source, q.Rel, q.Weak, q.P, q.Q, v.related, q.Want)
		}
		seen[q.Source]++
	}
	for _, s := range []string{"catalogue", "corpus", "equiv", "break"} {
		if seen[s] == 0 {
			t.Errorf("no %s query in 300 draws", s)
		}
	}
}

// streams renders everything a seed generates: the ladder rungs, the serve
// warm-up and two timed passes, one batch pass and the fixture's records.
func streams(t *testing.T, seed int64) (inputs, records []byte, chain string) {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(ladderRungs(seed))
	g := newQueryGen(seed)
	dir := filepath.Join(t.TempDir(), "fixture")
	fixture, err := buildFixture(dir, g)
	if err != nil {
		t.Fatal(err)
	}
	plan := newServePlan(seed, g, fixture)
	for k := 0; k < 3; k++ {
		enc.Encode(plan.pass(k))
	}
	enc.Encode(nextQueries(g, batchSize*batchesPerPass))

	led, err := ledger.Open(dir, ledger.Config{MaxWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	var rec bytes.Buffer
	n, err := led.Export(&rec)
	if err != nil {
		t.Fatal(err)
	}
	if st := led.Stats(); n != fixtureRecords || st.Rejected != 0 {
		t.Fatalf("fixture holds %d records, %d rejected; want %d, 0", n, st.Rejected, fixtureRecords)
	}
	return buf.Bytes(), rec.Bytes(), led.Stats().ChainHead
}

func TestSeedReproducesInputs(t *testing.T) {
	in1, rec1, chain1 := streams(t, 1)
	in1b, rec1b, chain1b := streams(t, 1)
	if !bytes.Equal(in1, in1b) {
		t.Error("seed 1 generated different request streams on two runs")
	}
	if !bytes.Equal(rec1, rec1b) || chain1 != chain1b {
		t.Error("seed 1 built different fixtures on two runs")
	}
	in2, rec2, chain2 := streams(t, 2)
	if bytes.Equal(in1, in2) {
		t.Error("seeds 1 and 2 generated the same request streams")
	}
	if bytes.Equal(rec1, rec2) || chain1 == chain2 {
		t.Error("seeds 1 and 2 built the same fixture")
	}
}

func TestModuleAttribution(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "bpi/internal/syntax.canon", "bpi/internal/equiv.(*engine).node"}, "syntax"},
		{[]string{"bpi/internal/names.Set.Contains", "bpi/internal/syntax.Key"}, "names"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*conn).serve"}, "net"},
		{[]string{"runtime.futex", "runtime.mstart"}, "other"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestParseTraces reads a -traces report: values on the innermost frame,
// label lines and inline markers skipped.
func TestParseTraces(t *testing.T) {
	txt := `File: bpid
Type: cpu
Duration: 3s, Total samples = 40ms ( 1.33%)
-----------+-------------------------------------------------------
      30ms   bpi/internal/syntax.writeKey
             bpi/internal/syntax.Key (inline)
             main.main
-----------+-------------------------------------------------------
   request:  42
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	p, err := parseTraces([]byte(txt))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stacks) != 2 || p.weights[0] != 0.03 || p.weights[1] != 0.01 {
		t.Fatalf("stacks %q weights %v", p.stacks, p.weights)
	}
	if got := p.stacks[0][1]; got != "bpi/internal/syntax.Key" {
		t.Errorf("second frame %q, want the inline marker stripped", got)
	}
	shares := p.attribute()
	if shares["syntax"] != 0.75 || shares["runtime_gc"] != 0.25 {
		t.Errorf("shares %v, want syntax 0.75 and runtime_gc 0.25", shares)
	}
}

// TestStealyPassesRepeated: a pass above stealMax is replaced by an extra
// pass while the run has time left, the wall-clock medians skip it, and peak
// RSS stays with the first passes.
func TestStealyPassesRepeated(t *testing.T) {
	steal := []float64{0, 0.2, 0, 0, 0.1, 0.3, 0}
	r := newTestRun()
	r.seconds = time.Hour
	var probes int
	ps, err := r.runPasses(4, 4, func() error { probes++; return nil }, func(k int) (passSample, string, error) {
		return passSample{wall: float64(k), cpu: float64(k), rss: float64(k), steal: steal[k-1]}, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.samples) != 6 || probes != 4 {
		t.Fatalf("ran %d passes and %d probes, want 6 and 4 (two extra passes for n=4)", len(ps.samples), probes)
	}
	// Least steal: passes 1, 3, 4 (steal 0) and 5 (0.1); median wall 3.5.
	if got := r.e2e["pass_s"].Value; got != 3.5 {
		t.Errorf("pass_s %v, want 3.5", got)
	}
	if got := r.e2e["peak_rss_mb"].Value; got != 2.5 {
		t.Errorf("peak_rss_mb %v, want 2.5 (first four passes)", got)
	}

	// Past its time budget a run adds no pass.
	r = newTestRun()
	ps, err = r.runPasses(4, 0, nil, func(k int) (passSample, string, error) {
		return passSample{wall: 1, steal: steal[k-1]}, "", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps.samples) != 4 {
		t.Fatalf("ran %d passes with no time left, want 4", len(ps.samples))
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the reported metric names and
// units in step with BENCHMARK.json at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type m struct{ Name, Unit string }
	var b struct {
		EndToEnd []m `json:"end_to_end"`
		PerLayer []m `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		json []m
		code []struct{ name, unit string }
	}{{b.EndToEnd, e2eNames}, {b.PerLayer, layerNames}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the harness reports %d", len(c.json), len(c.code))
		}
		for i, j := range c.json {
			if j.Name != c.code[i].name || j.Unit != c.code[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s (%s), harness %s (%s)", i, j.Name, j.Unit, c.code[i].name, c.code[i].unit)
			}
		}
	}
}
