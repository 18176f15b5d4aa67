// Command perfbench is the repository benchmark. It drives one workload
// against programs built from the checkout under test and prints every
// metric by name and unit, ending with one JSON result line:
//
//	perfbench -bin DIR -work DIR --workload ladder|serve|batch --seed N --seconds S --trace 0|1
//
// run.sh builds the programs and calls it; see README.md for the workloads
// and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	bin      string // directory holding bpid and ladderchild
	dir      string // private scratch directory of this run
	traceOut string // Chrome trace file of the traced run

	spans *spanLog // nil unless traced

	e2e   map[string]metric // end-to-end metrics (untraced passes)
	layer map[string]metric // per-layer metrics (traced run)

	attempted, failed int
	wrong             []string // known-answer mismatches
}

func (r *run) setE2E(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name string, v float64, unit string) { r.layer[name] = metric{v, unit} }

// mismatch records a wrong answer; any mismatch fails the run.
func (r *run) mismatch(format string, args ...any) {
	if len(r.wrong) < 20 {
		r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
	} else if len(r.wrong) == 20 {
		r.wrong = append(r.wrong, "…")
	}
}

// e2eNames and layerNames list the reported metrics with their units. Every
// workload reports all of them; a layer a workload does not cross reads 0.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"}, {"pass_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
}

var layerNames = []struct{ name, unit string }{
	{"parser.parse_us", "us"},
	{"syntax.simplify_us", "us"}, {"syntax.key_us", "us"},
	{"semantics.steps_us", "us"}, {"semantics.trans_per_state", "count"},
	{"equiv.decide_s", "s"}, {"equiv.pairs", "count"}, {"equiv.store_terms", "count"},
	{"equiv.intern_hit_ratio", "1"}, {"equiv.deriv_hit_ratio", "1"},
	{"equiv.engine_p50_ms", "ms"}, {"equiv.engine_p99_ms", "ms"},
	{"service.latency_p50_ms", "ms"}, {"service.latency_p99_ms", "ms"},
	{"service.overhead_p50_ms", "ms"}, {"service.cache_hit_ratio", "1"}, {"service.batch_p50_ms", "ms"},
	{"cluster.admitted", "count"}, {"cluster.shed", "count"}, {"cluster.est_service_ms", "ms"},
	{"cert.verify_ms", "ms"}, {"cert.bytes", "B"},
	{"ledger.open_s", "s"}, {"ledger.records", "count"}, {"ledger.rejected", "count"},
	{"ledger.appended", "count"}, {"ledger.seals", "count"}, {"ledger.seal_wait_s", "s"}, {"ledger.dropped", "count"},
	{"runtime.alloc_mb", "MB"}, {"runtime.alloc_objects", "count"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_frac", "1"},
	{"prof.parser_frac", "1"}, {"prof.syntax_frac", "1"}, {"prof.names_frac", "1"}, {"prof.semantics_frac", "1"},
	{"prof.equiv_frac", "1"}, {"prof.cert_frac", "1"}, {"prof.ledger_frac", "1"}, {"prof.service_frac", "1"},
	{"prof.cluster_frac", "1"}, {"prof.net_frac", "1"},
	{"prof.runtime_gc_frac", "1"}, {"prof.other_frac", "1"},
	{"obs.overhead_frac", "1"},
	{"failed_frac", "1"},
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	workload := flag.String("workload", "", "ladder, serve or batch")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "run length budget; sets the number of passes")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := flag.String("bin", "", "directory holding the built bpid and ladderchild")
	work := flag.String("work", "", "scratch directory for run files")
	flag.Parse()
	if *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -bin, -work, --seconds >= 1 and --trace 0|1")
		return 2
	}
	runFn, ok := map[string]func(*run) error{"ladder": runLadder, "serve": runServe, "batch": runBatch}[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want ladder, serve or batch)\n", *workload)
		return 2
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, bin: *bin,
		e2e: map[string]metric{}, layer: map[string]metric{},
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, fmt.Sprintf("%s-seed%d-", r.workload, r.seed))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r.dir = dir
	if r.traced {
		r.spans = &spanLog{}
		r.traceOut = filepath.Join(*work, "traces", fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
	}

	// A signal stops the children before the harness exits.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(dir)
		os.Exit(1)
	}()
	defer stopAll()

	printHost()
	err = runFn(r)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	return r.report()
}

// printHost records the facts a reader needs to judge a figure: CPUs,
// GOMAXPROCS (never set by the benchmark), GOGC, and the toolchain.
func printHost() {
	env := func(k string) string {
		if v, ok := os.LookupEnv(k); ok {
			return v
		}
		return "unset"
	}
	fmt.Printf("host cpus=%d gomaxprocs=%d GOMAXPROCS=%s GOGC=%s go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), env("GOMAXPROCS"), env("GOGC"),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// report prints every metric of the run by name and unit, then the JSON
// result line. A known-answer mismatch makes the run fail.
func (r *run) report() int {
	ms := map[string]metric{}
	names := e2eNames
	src := r.e2e
	if r.traced {
		for _, n := range e2eNames {
			fmt.Printf("%-7s %-26s %16s %s (untraced passes)\n", r.workload, n.name,
				strconv.FormatFloat(r.e2e[n.name].Value, 'g', 8, 64), n.unit)
		}
		names, src = layerNames, r.layer
		r.setLayer("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "1")
	}
	for _, n := range names {
		m, ok := src[n.name]
		if !ok {
			m = metric{0, n.unit}
		}
		ms[n.name] = m
		fmt.Printf("%-7s %-26s %16s %s\n", r.workload, n.name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	fmt.Printf("%-7s attempted=%d failed=%d wrong=%d\n", r.workload, r.attempted, r.failed, len(r.wrong))
	for _, w := range r.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answer:", w)
	}
	res := result{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// passCount is the number of passes a run reports: the --seconds budget
// divided by the workload's nominal pass time on the reference host (2
// CPUs), at least 3, and at most the largest count that, with its extra
// passes, stays within limit. The count, not the clock, ends a run, so
// every commit does the same work and memory figures compare like with like.
func (r *run) passCount(nominal time.Duration, limit int) int {
	n := max(3, int(math.Round(float64(r.seconds)/float64(nominal))))
	for n > 3 && n+extraPasses(n) > limit {
		n--
	}
	return n
}

// joinKV renders a small map as k=v pairs in key order.
func joinKV(m map[string]float64) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	var b strings.Builder
	for _, k := range ks {
		fmt.Fprintf(&b, "%s=%.4g ", k, m[k])
	}
	return strings.TrimSpace(b.String())
}
