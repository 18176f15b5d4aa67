// Command bpibench regenerates the paper-reproduction report: every
// experiment of DESIGN.md §5 (the executable counterparts of the paper's
// lemmas, remarks, theorems and examples) is run and summarised as a table
// of measured results. EXPERIMENTS.md's verdict table copies the measured
// strings that -json writes.
//
// Usage: bpibench [-run regexp-free-substring] [-json file] [-stress]
// [-protocols] [-trace out.json] [-counters] [-cpuprofile file]
// [-memprofile file]
//
// -run keeps the experiments whose id contains the substring; a filter that
// selects nothing is a usage error (exit 2), not an empty success.
//
// -json writes the report in BENCH_equiv.json's format. E13's entry carries
// the broadcast-cost series: for each receiver count n, the bπ steps, the
// π τ-steps and the time of each side's run.
//
// -stress decides every internal/stress ladder rung (gossip meshes up to
// 10^5+ states, self-pair against its rotation, strong step) once on a
// fresh checker: the verdict must be "related" and the explored pair count
// must cover every state. -protocols does the same for the internal/protocols
// ladder (broadcast algorithms against their behavioural specs), where the
// verdict must match the scenario's expectation. Each rung's states, pairs
// and wall-clock milliseconds land in the JSON report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"bpi/internal/actions"
	"bpi/internal/axioms"
	"bpi/internal/cbs"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/machine"
	"bpi/internal/maytest"
	"bpi/internal/names"
	"bpi/internal/obs"
	"bpi/internal/papers"
	"bpi/internal/pi"
	"bpi/internal/protocols"
	"bpi/internal/pvm"
	"bpi/internal/ram"
	brand "bpi/internal/rand"
	"bpi/internal/refine"
	"bpi/internal/semantics"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

type experiment struct {
	id    string
	item  string // the paper item reproduced
	claim string // what the experiment checks
	run   func() (measured string, ok bool, err error)
	// series, set by E13 alone, holds the per-size points of its last run
	// for the JSON report.
	series *[]costPoint
}

// tracer is the suite-wide observability sink (nil unless -trace/-counters
// was given).
var tracer *obs.Tracer

// newChecker builds the equivalence checker experiments use.
func newChecker() *equiv.Checker { return instrument(equiv.NewChecker(nil)) }

func instrument(ch *equiv.Checker) *equiv.Checker {
	if tracer != nil {
		ch.Obs = tracer
		ch.Store().SetObs(tracer)
	}
	return ch
}

type outcome struct {
	status   string
	measured string
	dur      time.Duration
}

func (o outcome) failed() bool { return o.status != "PASS" }

func runOne(e experiment) outcome {
	start := time.Now()
	measured, ok, err := e.run()
	dur := time.Since(start)
	status := "PASS"
	if err != nil {
		status, measured = "ERROR", err.Error()
	} else if !ok {
		status = "FAIL"
	}
	return outcome{status, measured, dur}
}

// selectExperiments keeps the experiments whose id contains filter, in
// suite order; an empty filter keeps them all.
func selectExperiments(exps []experiment, filter string) []experiment {
	if filter == "" {
		return exps
	}
	var kept []experiment
	for _, e := range exps {
		if strings.Contains(e.id, filter) {
			kept = append(kept, e)
		}
	}
	return kept
}

type expJSON struct {
	ID       string      `json:"id"`
	Item     string      `json:"item"`
	Status   string      `json:"status"`
	Measured string      `json:"measured"`
	MS       float64     `json:"ms"`
	Series   []costPoint `json:"series,omitempty"`
}

// costPoint is one receiver count n of E13's broadcast-cost series: the
// steps that deliver one message to n receivers in bπ and in the π
// baseline, and the milliseconds each side's single run took.
type costPoint struct {
	N          int     `json:"n"`
	BpiSteps   int     `json:"bpi_steps"`
	PiTauSteps int     `json:"pi_tau_steps"`
	BpiMS      float64 `json:"bpi_ms"`
	PiMS       float64 `json:"pi_ms"`
}

// millis is d in milliseconds at microsecond resolution, the unit of every
// time in the JSON report.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

type benchJSON struct {
	GOMAXPROCS  int            `json:"gomaxprocs"`
	HostCPUs    int            `json:"host_cpus"`
	SuiteMS     float64        `json:"suite_ms"`
	Stress      *stressJSON    `json:"stress,omitempty"`
	Protocols   *protocolsJSON `json:"protocols,omitempty"`
	Experiments []expJSON      `json:"experiments"`
}

type stressRungJSON struct {
	Name   string  `json:"name"`
	States int     `json:"states"`
	Pairs  int     `json:"pairs"`
	MS     float64 `json:"ms"`
}

type stressJSON struct {
	// HostCPUs is runtime.NumCPU() on the machine that ran the ladder.
	HostCPUs int              `json:"host_cpus"`
	Rungs    []stressRungJSON `json:"rungs"`
}

// decideRung times one ladder decision on a fresh checker and checks its
// outcome: the verdict must be want, and a related pair space must hold at
// least one pair per state of the left term's autonomous LTS. Both ladders
// decide step relations, where every such state is the left component of
// some surviving pair. It returns the explored pair count, the
// milliseconds taken and whether the checks passed.
func decideRung(name string, states int, want bool, decide func() (equiv.Result, error)) (int, float64, bool) {
	start := time.Now()
	r, err := decide()
	ms := millis(time.Since(start))
	switch {
	case err != nil:
		fmt.Printf("%-18s ERROR %v\n", name, err)
		return 0, ms, false
	case r.Related != want:
		fmt.Printf("%-18s verdict %v, want %v (%s)\n", name, r.Related, want, r.Reason)
		return r.Pairs, ms, false
	case r.Related && r.Pairs < states:
		fmt.Printf("%-18s explored %d pairs, fewer than its %d states\n", name, r.Pairs, states)
		return r.Pairs, ms, false
	}
	return r.Pairs, ms, true
}

// runStress decides every internal/stress Ladder rung (self-pair against its
// rotation, strong step — the engine has to close the full reachable pair
// space to say yes), each on a fresh store so no rung inherits another's
// memoised semantics. Returns the ladder and the number of failures.
func runStress() (*stressJSON, int) {
	out := &stressJSON{HostCPUs: runtime.NumCPU()}
	failures := 0
	for _, c := range stress.Ladder() {
		ch := instrument(equiv.NewChecker(nil))
		// The largest rung's pair space is ~5M (pair density grows with
		// mesh size: ~30x states at mesh-20, ~36x at mesh-22); 1<<23 keeps
		// comfortable headroom so the ladder never hits the budget.
		ch.MaxPairs = 1 << 23
		pairs, ms, ok := decideRung("stress "+c.Name, c.States, true, func() (equiv.Result, error) {
			return ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: c.P, Q: c.Q})
		})
		if !ok {
			failures++
		}
		fmt.Printf("stress %-8s %7d states %8d pairs  %.1fs\n", c.Name, c.States, pairs, ms/1000)
		out.Rungs = append(out.Rungs, stressRungJSON{Name: c.Name, States: c.States, Pairs: pairs, MS: ms})
	}
	return out, failures
}

type protocolsRungJSON struct {
	Name   string  `json:"name"`
	Algo   string  `json:"algo"`
	Rel    string  `json:"rel"`
	Weak   bool    `json:"weak"`
	States int     `json:"states"`
	Pairs  int     `json:"pairs"`
	MS     float64 `json:"ms"`
}

type protocolsJSON struct {
	HostCPUs int                 `json:"host_cpus"`
	Rungs    []protocolsRungJSON `json:"rungs"`
}

// runProtocols decides every internal/protocols Ladder rung — a real
// broadcast algorithm against its behavioural spec, in the scenario's own
// relation — once on a fresh store. Verdicts must match the scenario's
// expectation. Returns the ladder and the number of failures.
func runProtocols() (*protocolsJSON, int) {
	out := &protocolsJSON{HostCPUs: runtime.NumCPU()}
	failures := 0
	for _, s := range protocols.Ladder() {
		ch := instrument(protocols.NewChecker())
		pairs, ms, ok := decideRung("protocols "+s.Name, s.States, s.WantEquiv, func() (equiv.Result, error) {
			return protocols.Decide(ch, s)
		})
		if !ok {
			failures++
		}
		fmt.Printf("protocols %-16s %6d states %8d pairs  %.0fms\n", s.Name, s.States, pairs, ms)
		out.Rungs = append(out.Rungs, protocolsRungJSON{Name: s.Name, Algo: s.Algo, Rel: s.Rel,
			Weak: s.Weak, States: s.States, Pairs: pairs, MS: ms})
	}
	return out, failures
}

// main delegates to run so the profile-writing defers fire before the
// process exits with the suite's status code.
func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("bpibench", flag.ContinueOnError)
	filter := fs.String("run", "", "only run experiments whose id contains this substring")
	jsonPath := fs.String("json", "", "write machine-readable results (BENCH_equiv.json style) to this file")
	stressFlag := fs.Bool("stress", false, "decide the internal/stress ladder (10^5+ states); takes minutes")
	protocolsFlag := fs.Bool("protocols", false, "decide the internal/protocols conformance ladder (broadcast algorithms vs their specs)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON file covering the whole suite")
	counters := fs.Bool("counters", false, "print aggregate engine counters to stderr after the suite")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	exps := selectExperiments(suite(), *filter)
	if len(exps) == 0 {
		fmt.Fprintf(os.Stderr, "bpibench: -run %q matches no experiment id\n", *filter)
		return 2
	}
	if *traceOut != "" || *counters {
		tracer = obs.NewWithLimit(1 << 18)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpibench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err == nil {
				runtime.GC()
				err = pprof.WriteHeapProfile(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bpibench: memprofile: %v\n", err)
			}
		}()
	}

	fmt.Printf("bπ-calculus reproduction suite — %d experiments (GOMAXPROCS=%d)\n\n",
		len(exps), runtime.GOMAXPROCS(0))
	fmt.Printf("%-4s %-26s %-8s %-9s %s\n", "ID", "Paper item", "Status", "Time", "Measured")
	fmt.Println(strings.Repeat("-", 110))
	start := time.Now()
	report := benchJSON{GOMAXPROCS: runtime.GOMAXPROCS(0), HostCPUs: runtime.NumCPU()}
	failures := 0
	for _, e := range exps {
		o := runOne(e)
		if o.failed() {
			failures++
		}
		fmt.Printf("%-4s %-26s %-8s %-9s %s\n", e.id, e.item, o.status, o.dur.Round(time.Millisecond), o.measured)
		rec := expJSON{
			ID: e.id, Item: e.item, Status: o.status, Measured: o.measured,
			MS: millis(o.dur),
		}
		if e.series != nil {
			rec.Series = *e.series
		}
		report.Experiments = append(report.Experiments, rec)
	}
	suiteWall := time.Since(start)
	report.SuiteMS = millis(suiteWall)
	fmt.Println(strings.Repeat("-", 110))
	fmt.Printf("wall-clock: %s\n", suiteWall.Round(time.Millisecond))

	if *stressFlag {
		fmt.Println(strings.Repeat("-", 110))
		st, sf := runStress()
		failures += sf
		report.Stress = st
	}

	if *protocolsFlag {
		fmt.Println(strings.Repeat("-", 110))
		pr, pf := runProtocols()
		failures += pf
		report.Protocols = pr
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpibench: writing %s: %v\n", *jsonPath, err)
			return 1
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err == nil {
			err = tracer.WriteChromeTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpibench: writing %s: %v\n", *traceOut, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s (%d dropped)\n",
			len(tracer.Events()), *traceOut, tracer.Dropped())
	}
	if *counters {
		fmt.Fprint(os.Stderr, obs.FormatCounters(tracer.Counters()))
	}

	if failures > 0 {
		fmt.Printf("%d experiment(s) failed\n", failures)
		return 1
	}
	fmt.Println("all experiments reproduce the paper's claims")
	return 0
}

func suite() []experiment {
	return []experiment{
		e1(), e2(), e3(), e4(), e5(), e7(), e8(), e9(),
		e10(), e11(), e12(), e13(), e14(), e15(), e16(), e17(),
		e18(), e19(),
	}
}

// E18: §6's Random Access Machine claim — the Minsky-machine encoding halts
// honestly exactly when the machine halts.
func e18() experiment {
	return experiment{id: "E18", item: "§6 RAM encoding", claim: "encoding may-halt ⟺ Minsky machine halts", run: func() (string, bool, error) {
		double := ram.Program{
			ram.DecJz{R: 0, NextPos: 1, NextZero: 3},
			ram.Inc{R: 1, Next: 2},
			ram.Inc{R: 1, Next: 0},
			ram.Halt{},
		}
		haltGot, err := ram.HaltsMaybe(double, []int{2, 0}, 300000)
		if err != nil {
			return "", false, err
		}
		spin := ram.Program{ram.DecJz{R: 0, NextPos: 0, NextZero: 0}}
		spinGot, err := ram.HaltsMaybe(spin, []int{0}, 50000)
		if err != nil {
			return "", false, err
		}
		cheat := ram.Program{
			ram.DecJz{R: 0, NextPos: 1, NextZero: 2},
			ram.DecJz{R: 1, NextPos: 1, NextZero: 1},
			ram.Halt{},
		}
		cheatGot, err := ram.HaltsMaybe(cheat, []int{1, 0}, 100000)
		if err != nil {
			return "", false, err
		}
		ok := haltGot && !spinGot && !cheatGot
		return fmt.Sprintf("double=%v spin=%v cheat-guess=%v", haltGot, spinGot, cheatGot), ok, nil
	}}
}

// E19: cross-engine validation — partition refinement vs the pair engine on
// random terms for the autonomous relations.
func e19() experiment {
	return experiment{id: "E19", item: "engine cross-check", claim: "refinement and pair engines agree on ~φ and ~b", run: func() (string, bool, error) {
		cfg := brand.Default()
		cfg.MaxDepth = 3
		g := brand.New(808, cfg)
		ch := newChecker()
		sys := semantics.NewSystem(nil)
		agree := 0
		for i := 0; i < 25; i++ {
			p := g.Term()
			q := g.Mutate(p)
			gr, err := lts.Explore(sys, []syntax.Proc{p, q}, lts.Options{AutonomousOnly: true, MaxStates: 1 << 14})
			if err != nil {
				return "", false, err
			}
			sr, err := refine.StrongStep(gr)
			if err != nil {
				return "", false, err
			}
			sp, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: p, Q: q})
			if err != nil {
				return "", false, err
			}
			br, err := refine.StrongBarbed(gr)
			if err != nil {
				return "", false, err
			}
			bp, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelBarbed, P: p, Q: q})
			if err != nil {
				return "", false, err
			}
			if sr != sp.Related || br != bp.Related {
				return fmt.Sprintf("engines disagree on pair %d", i), false, nil
			}
			agree++
		}
		return fmt.Sprintf("%d pairs × 2 relations agree", agree), true, nil
	}}
}

// E16: the weak congruence behaves as Theorem 4 requires (sampled contexts)
// and the τ-law separates ≈ from ≈c.
func e16() experiment {
	return experiment{id: "E16", item: "Theorems 4-5 (weak)", claim: "≈c preserved by contexts; τ.p ≈ p but ≉c", run: func() (string, bool, error) {
		ch := newChecker()
		p := syntax.TauP(syntax.SendN("c"))
		q := syntax.SendN("c")
		w, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
		if err != nil {
			return "", false, err
		}
		cgr, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, Weak: true, P: p, Q: q})
		if err != nil {
			return "", false, err
		}
		if !w.Related || cgr.Related {
			return "τ-law gap wrong", false, nil
		}
		// A ≈c pair stays related under contexts.
		lp := syntax.Send("a", nil, p)
		lq := syntax.Send("a", nil, q)
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, Weak: true, P: lp, Q: lq})
		if err != nil {
			return "", false, err
		}
		if !r.Related {
			return "prefixed τ-law not ≈c", false, nil
		}
		ctxs := 0
		for _, ctx := range []func(syntax.Proc) syntax.Proc{
			func(r syntax.Proc) syntax.Proc { return syntax.Choice(r, syntax.SendN("d")) },
			func(r syntax.Proc) syntax.Proc { return syntax.Group(r, syntax.RecvN("d", "z")) },
			func(r syntax.Proc) syntax.Proc { return syntax.Restrict(r, "w") },
		} {
			res, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: true, P: ctx(lp), Q: ctx(lq)})
			if err != nil {
				return "", false, err
			}
			if !res.Related {
				return "≈c broken by a context", false, nil
			}
			ctxs++
		}
		return fmt.Sprintf("τ-law gap confirmed; %d contexts preserve ≈c", ctxs), true, nil
	}}
}

// E17: may-testing (the paper's §6 outlook): the bisimulation-distinct pair
// ā.(b̄+c̄) vs ā.b̄+ā.c̄ is not separated by any trace observer.
func e17() experiment {
	return experiment{id: "E17", item: "§6 may-testing outlook", claim: "observers cannot split ā.(b̄+c̄) from ā.b̄+ā.c̄", run: func() (string, bool, error) {
		p := syntax.Send("a", nil, syntax.Choice(syntax.SendN("b"), syntax.SendN("c")))
		q := syntax.Choice(
			syntax.Send("a", nil, syntax.SendN("b")),
			syntax.Send("a", nil, syntax.SendN("c")))
		ch := newChecker()
		res, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
		if err != nil {
			return "", false, err
		}
		if res.Related {
			return "pair unexpectedly bisimilar", false, nil
		}
		obs := maytest.TraceObservers([]names.Name{"a", "b", "c"}, 3, maytest.DefaultSuccess)
		v, err := maytest.Distinguish(nil, p, q, obs, maytest.DefaultSuccess, 0)
		if err != nil {
			return "", false, err
		}
		if v.Distinguisher != nil {
			return "a trace observer separated them", false, nil
		}
		v2, err := maytest.Distinguish(nil, q, p, obs, maytest.DefaultSuccess, 0)
		if err != nil {
			return "", false, err
		}
		if v2.Distinguisher != nil {
			return "reverse direction separated", false, nil
		}
		return fmt.Sprintf("≁ by bisimulation, indistinguishable by %d observers", v.Tried+v2.Tried), true, nil
	}}
}

// E1: the SOS sample — one broadcast term, one output and two residual
// inputs (the rule-by-rule witnesses are internal/semantics tests).
func e1() experiment {
	return experiment{id: "E1", item: "Tables 2+3 (SOS)", claim: "a!(b) | a?(x).x! | c?(y) derives 1 output and 2 residual inputs", run: func() (string, bool, error) {
		sys := semantics.NewSystem(nil)
		p := syntax.Group(
			syntax.SendN("a", "b"),
			syntax.Recv("a", []names.Name{"x"}, syntax.SendN("x")),
			syntax.RecvN("c", "y"),
		)
		ts, err := sys.Steps(p)
		if err != nil {
			return "", false, err
		}
		outs, ins := 0, 0
		for _, t := range ts {
			if t.Act.IsOutput() {
				outs++
			}
			if t.Act.IsInput() {
				ins++
			}
		}
		return fmt.Sprintf("broadcast=%d outputs, %d residual inputs", outs, ins), outs == 1 && ins == 2, nil
	}}
}

// E2: Lemma 1 free-name monotonicity on random terms.
func e2() experiment {
	return experiment{id: "E2", item: "Lemma 1 / Corollary 1", claim: "fn shrinks along τ, grows only by received/extruded names", run: func() (string, bool, error) {
		sys := semantics.NewSystem(nil)
		g := brand.New(11, brand.Default())
		checked := 0
		for i := 0; i < 200; i++ {
			p := g.Term()
			ts, err := sys.Steps(p)
			if err != nil {
				return "", false, err
			}
			fn := syntax.FreeNames(p)
			for _, t := range ts {
				allowed := fn.Clone().AddAll(t.Act.Names())
				if extra := syntax.FreeNames(t.Target).Minus(allowed); extra.Len() > 0 {
					return fmt.Sprintf("violation at %s", syntax.String(p)), false, nil
				}
				checked++
			}
		}
		return fmt.Sprintf("%d transitions conform", checked), true, nil
	}}
}

// E3: the counterexamples of Remarks 1–4.
func e3() experiment {
	return experiment{id: "E3", item: "Remarks 1-4", claim: "all claimed (in)equivalences hold", run: func() (string, bool, error) {
		ch := newChecker()
		pass := 0
		for _, w := range papers.Witnesses() {
			claims := map[string]bool{cert.RelLabelled: w.Labelled, cert.RelBarbed: w.Barbed, cert.RelStep: w.Step,
				cert.RelOneStep: w.OneStep, cert.RelCongruence: w.Congruent}
			for _, rel := range cert.Relations {
				r, err := ch.Decide(context.Background(), equiv.Query{Rel: rel, P: w.P, Q: w.Q})
				if err != nil {
					return "", false, err
				}
				if r.Related != claims[rel] {
					return fmt.Sprintf("witness %s deviates", w.Name), false, nil
				}
			}
			pass++
		}
		return fmt.Sprintf("%d witnesses, 5 relations each", pass), true, nil
	}}
}

// E4: the structural laws of Lemmas 2/4/6.
func e4() experiment {
	return experiment{id: "E4", item: "Lemmas 2, 4, 6 (a-l)", claim: "6 concrete structural laws hold under ~, ~b and ~φ", run: func() (string, bool, error) {
		ch := newChecker()
		p := syntax.Send("a", []names.Name{"b"}, syntax.RecvN("c", "x"))
		q := syntax.TauP(syntax.SendN("b"))
		laws := [][2]syntax.Proc{
			{syntax.Group(p, syntax.PNil), p},
			{syntax.Group(p, q), syntax.Group(q, p)},
			{syntax.Choice(p, syntax.PNil), p},
			{syntax.Choice(p, q), syntax.Choice(q, p)},
			{syntax.Restrict(p, "z"), p},
			{syntax.Group(syntax.Restrict(syntax.SendN("x", "a"), "x"), q),
				syntax.Restrict(syntax.Group(syntax.SendN("x", "a"), q), "x")},
		}
		n := 0
		for _, lw := range laws {
			for _, rel := range []string{cert.RelLabelled, cert.RelBarbed, cert.RelStep} {
				r, err := ch.Decide(context.Background(), equiv.Query{Rel: rel, P: lw[0], Q: lw[1]})
				if err != nil {
					return "", false, err
				}
				if !r.Related {
					return fmt.Sprintf("law failed: %s vs %s", syntax.String(lw[0]), syntax.String(lw[1])), false, nil
				}
				n++
			}
		}
		return fmt.Sprintf("%d law×relation checks", n), true, nil
	}}
}

// E5: preservation by parallel composition (Lemmas 3/9).
func e5() experiment {
	return experiment{id: "E5", item: "Lemmas 3 and 9", claim: "~ and ~b preserved by parallel contexts", run: func() (string, bool, error) {
		ch := newChecker()
		pa, pb := syntax.RecvN("a"), syntax.RecvN("b")
		ctxs := []syntax.Proc{
			syntax.SendN("c"),
			syntax.Recv("c", []names.Name{"z"}, syntax.SendN("z")),
			syntax.TauP(syntax.SendN("d")),
		}
		for _, r := range ctxs {
			res, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: syntax.Group(pa, r), Q: syntax.Group(pb, r)})
			if err != nil {
				return "", false, err
			}
			if !res.Related {
				return "parallel context broke ~", false, nil
			}
			res, err = ch.Decide(context.Background(), equiv.Query{Rel: cert.RelBarbed, P: syntax.Group(pa, r), Q: syntax.Group(pb, r)})
			if err != nil {
				return "", false, err
			}
			if !res.Related {
				return "parallel context broke ~b", false, nil
			}
		}
		return fmt.Sprintf("%d contexts preserve both", len(ctxs)), true, nil
	}}
}

// E7: Theorem 1 inclusion sampling.
func e7() experiment {
	return experiment{id: "E7", item: "Theorem 1", claim: "~ implies ~b and ~φ on sampled pairs; chain ~c⊆~+⊆~", run: func() (string, bool, error) {
		cfg := brand.Default()
		cfg.MaxDepth = 3
		g := brand.New(12345, cfg)
		ch := newChecker()
		related := 0
		for i := 0; i < 40; i++ {
			p := g.Term()
			q := g.Mutate(p)
			l, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
			if err != nil {
				return "", false, err
			}
			if !l.Related {
				continue
			}
			related++
			b, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelBarbed, P: p, Q: q})
			if err != nil {
				return "", false, err
			}
			s, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelStep, P: p, Q: q})
			if err != nil {
				return "", false, err
			}
			if !b.Related || !s.Related {
				return "inclusion violated", false, nil
			}
		}
		return fmt.Sprintf("%d related pairs conform", related), related > 0, nil
	}}
}

// E8: soundness of the axiom catalogue.
func e8() experiment {
	return experiment{id: "E8", item: "Theorem 6 (+Tables 6-8)", claim: "every axiom instance is ~c-sound", run: func() (string, bool, error) {
		ch := newChecker()
		cfg := brand.Default()
		cfg.MaxDepth = 2
		cfg.Names = []names.Name{"a", "b"}
		g := brand.New(4242, cfg)
		n := 0
		for _, ax := range axioms.Catalogue() {
			for trial := 0; trial < 6; trial++ {
				m := axioms.Material{P: g.Term(), Q: g.Term(), R: g.Term(), A: "a", B: "b", C: "c", X: "x"}
				lhs, rhs, ok := ax.Inst(m)
				if !ok {
					continue
				}
				got, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: lhs, Q: rhs})
				if err != nil {
					return "", false, err
				}
				if !got.Related {
					return fmt.Sprintf("unsound: %s", ax.Name), false, nil
				}
				n++
			}
		}
		return fmt.Sprintf("%d instances over %d axioms", n, len(axioms.Catalogue())), true, nil
	}}
}

// E9: completeness — prover agreement with the semantic ~c.
func e9() experiment {
	return experiment{id: "E9", item: "Theorem 7", claim: "A ⊢ p=q iff p ~c q on sampled finite pairs", run: func() (string, bool, error) {
		ch := newChecker()
		pr := axioms.NewProver(nil)
		cfg := brand.Default()
		cfg.MaxDepth = 3
		cfg.Names = []names.Name{"a", "b"}
		g := brand.New(20202, cfg)
		agree, pos := 0, 0
		for i := 0; i < 30; i++ {
			p := g.Term()
			q := g.Mutate(p)
			want, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
			if err != nil {
				return "", false, err
			}
			got, err := pr.Decide(p, q)
			if err != nil {
				return "", false, err
			}
			if got != want.Related {
				return fmt.Sprintf("disagreement on %s vs %s", syntax.String(p), syntax.String(q)), false, nil
			}
			agree++
			if want.Related {
				pos++
			}
		}
		return fmt.Sprintf("%d pairs agree (%d provable)", agree, pos), pos > 0, nil
	}}
}

// E10: Example 1 — cycle detection.
func e10() experiment {
	return experiment{id: "E10", item: "Example 1", claim: "signal on o reachable iff the graph has a cycle", run: func() (string, bool, error) {
		sys := semantics.NewSystem(papers.CycleEnvOnce())
		rows := []struct {
			name  string
			edges []papers.Edge
		}{
			{"ring2", papers.RingGraph(2)},
			{"ring3", papers.RingGraph(3)},
			{"chain3", papers.ChainGraph(3)},
			{"diamond", []papers.Edge{{From: "a", To: "b"}, {From: "a", To: "c"}, {From: "b", To: "d"}, {From: "c", To: "d"}}},
		}
		var out []string
		for _, r := range rows {
			want := papers.HasCycleOracle(r.edges)
			got, err := machine.CanReachBarb(sys, papers.CycleSystem(r.edges, "sig"), "sig", 120000)
			if err != nil {
				return "", false, err
			}
			if got != want {
				return fmt.Sprintf("%s: detector=%v oracle=%v", r.name, got, want), false, nil
			}
			out = append(out, fmt.Sprintf("%s=%v", r.name, got))
		}
		return strings.Join(out, " "), true, nil
	}}
}

// E11: Example 2 — transaction inconsistency.
func e11() experiment {
	return experiment{id: "E11", item: "Example 2", claim: "errc reachable iff the history is inconsistent", run: func() (string, bool, error) {
		sys := semantics.NewSystem(papers.TxnEnvOnce())
		hs := map[string][]papers.Txn{
			"consistent": {
				{ID: "t1", Item: "x", Write: true, Part: "p1"},
				{ID: "t2", Item: "x", Write: false, Part: "p1"},
			},
			"ww-conflict": {
				{ID: "t1", Item: "x", Write: true, Part: "p1"},
				{ID: "t2", Item: "x", Write: true, Part: "p2"},
			},
			"cross-cycle": {
				{ID: "t1", Item: "x", Write: false, Part: "p1"},
				{ID: "t2", Item: "x", Write: true, Part: "p2"},
				{ID: "t2", Item: "y", Write: false, Part: "p2"},
				{ID: "t1", Item: "y", Write: true, Part: "p1"},
			},
		}
		var out []string
		for name, h := range hs {
			want := papers.InconsistentOracle(h)
			got, err := machine.CanReachBarb(sys, papers.TransactionSystem(h, "unif", "errc"), "errc", 200000)
			if err != nil {
				return "", false, err
			}
			if got != want {
				return fmt.Sprintf("%s: detector=%v oracle=%v", name, got, want), false, nil
			}
			out = append(out, fmt.Sprintf("%s=%v", name, got))
		}
		return strings.Join(out, " "), true, nil
	}}
}

// E12: Example 3 — PVM group primitives.
func e12() experiment {
	return experiment{id: "E12", item: "Example 3", claim: "bcast reaches exactly current members; send is 1-1", run: func() (string, bool, error) {
		sys := semantics.NewSystem(pvm.Env())
		tasks := map[names.Name]*pvm.Task{
			"root":      {Instrs: []pvm.Instr{pvm.Send{To: "peer", Msg: "m"}}},
			"peer":      {Instrs: []pvm.Instr{pvm.Receive{Var: "x"}, pvm.Send{To: "out1", Msg: "x"}}},
			"bystander": {Instrs: []pvm.Instr{pvm.Receive{Var: "y"}, pvm.Send{To: "out2", Msg: "y"}}},
		}
		p, err := pvm.System(tasks)
		if err != nil {
			return "", false, err
		}
		direct, err := machine.CanReachBarb(sys, p, "out1", 120000)
		if err != nil {
			return "", false, err
		}
		leak, err := machine.CanReachBarb(sys, p, "out2", 120000)
		if err != nil {
			return "", false, err
		}
		return fmt.Sprintf("delivered=%v leaked=%v", direct, leak), direct && !leak, nil
	}}
}

// E13: expressiveness — the cost of one broadcast in π vs bπ, with each
// side timed per receiver count.
func e13() experiment {
	var points []costPoint
	return experiment{id: "E13", item: "§6 expressiveness", claim: "1 bπ step vs n π messages to reach n receivers", run: func() (string, bool, error) {
		points = nil
		var rows []string
		okAll := true
		for _, n := range []int{2, 4, 8} {
			// bπ: one output, n listeners: one autonomous step delivers all.
			parts := []syntax.Proc{syntax.SendN("a", "v")}
			for i := 0; i < n; i++ {
				x := names.Name(fmt.Sprintf("x%d", i))
				parts = append(parts, syntax.Recv("a", []names.Name{x}, syntax.PNil))
			}
			bp := syntax.Group(parts...)
			sys := semantics.NewSystem(nil)
			start := time.Now()
			res, err := machine.Run(sys, bp, machine.Options{MaxSteps: 100})
			bpiDur := time.Since(start)
			if err != nil {
				return "", false, err
			}
			// π: the sender must emit n times; each delivery is one τ.
			var send pi.Proc = pi.Nil{}
			for i := 0; i < n; i++ {
				send = pi.Out{Ch: "a", Arg: "v", Cont: send}
			}
			var ppar pi.Proc = send
			for i := 0; i < n; i++ {
				x := names.Name(fmt.Sprintf("x%d", i))
				ppar = pi.Par{L: ppar, R: pi.In{Ch: "a", Param: x, Cont: pi.Nil{}}}
			}
			start = time.Now()
			piSteps := pi.TauSteps(ppar, 4*n)
			points = append(points, costPoint{N: n, BpiSteps: res.Steps, PiTauSteps: piSteps,
				BpiMS: millis(bpiDur), PiMS: millis(time.Since(start))})
			rows = append(rows, fmt.Sprintf("n=%d: bπ=%d π=%d", n, res.Steps, piSteps))
			okAll = okAll && res.Steps == 1 && piSteps == n
		}
		return strings.Join(rows, "  "), okAll, nil
	}, series: &points}
}

// E14: the π → bπ encoding.
func e14() experiment {
	return experiment{id: "E14", item: "§6 encoding π→bπ", claim: "the encoding keeps the 3 may-barbs of one π term", run: func() (string, bool, error) {
		sys := semantics.NewSystem(nil)
		src := pi.Par{
			L: pi.Out{Ch: "a", Arg: "b", Cont: pi.Nil{}},
			R: pi.In{Ch: "a", Param: "x", Cont: pi.Out{Ch: "x", Arg: "c", Cont: pi.Nil{}}},
		}
		enc, err := pi.Encode(src)
		if err != nil {
			return "", false, err
		}
		want, err := pi.WeakBarbs(src, 0)
		if err != nil {
			return "", false, err
		}
		checked := 0
		for _, c := range pi.Free(src).Sorted() {
			got, err := machine.CanReachBarb(sys, enc, c, 150000)
			if err != nil {
				return "", false, err
			}
			if got != want.Contains(c) {
				return fmt.Sprintf("barb %s differs", c), false, nil
			}
			checked++
		}
		return fmt.Sprintf("%d barbs agree", checked), true, nil
	}}
}

// cbsEmbedMismatch walks root and its derivatives and returns the first
// one whose CBS steps differ from the autonomous bπ steps of its
// cbs.ToBpi image, compared as multisets of label and target (v! read as
// ether!(v)), or nil when they agree everywhere.
func cbsEmbedMismatch(sys *semantics.System, root cbs.Proc) (cbs.Proc, error) {
	const ether names.Name = "eth"
	seen := map[string]bool{}
	for queue := []cbs.Proc{root}; len(queue) > 0; queue = queue[1:] {
		c := queue[0]
		k := cbs.Key(c)
		if seen[k] {
			continue
		}
		seen[k] = true
		var want, got []string
		for _, t := range cbs.Steps(c) {
			lab := actions.NewTau().String()
			if t.Label.Kind == '!' {
				lab = actions.NewOut(ether, []names.Name{t.Label.Val}).String()
			}
			want = append(want, lab+" "+syntax.Key(cbs.ToBpi(t.Target, ether)))
			queue = append(queue, t.Target)
		}
		ts, err := sys.Steps(cbs.ToBpi(c, ether))
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			if t.Act.IsStep() {
				got = append(got, t.Act.String()+" "+syntax.Key(t.Target))
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(want, "\n") != strings.Join(got, "\n") {
			return c, nil
		}
	}
	return nil, nil
}

// E15: engine scaling (exploration size), and CBS as bπ's one-channel
// fragment: the embedding cbs.ToBpi matches the CBS baseline step for step
// on one term and its derivatives.
func e15() experiment {
	return experiment{id: "E15", item: "engine scaling", claim: "2ⁿ states for n independent senders; CBS embeds in bπ step for step on one term and its derivatives", run: func() (string, bool, error) {
		sys := semantics.NewSystem(nil)
		var rows []string
		for _, n := range []int{2, 4, 6, 8} {
			parts := make([]syntax.Proc, n)
			for i := range parts {
				parts[i] = syntax.Send(names.Name(fmt.Sprintf("c%d", i)), nil, syntax.PNil)
			}
			g, err := lts.Explore(sys, []syntax.Proc{syntax.Group(parts...)}, lts.Options{AutonomousOnly: true, MaxStates: 1 << 14})
			if err != nil {
				return "", false, err
			}
			if g.NumStates() != 1<<n {
				return fmt.Sprintf("n=%d: %d states, want %d", n, g.NumStates(), 1<<n), false, nil
			}
			rows = append(rows, fmt.Sprintf("n=%d:%d", n, g.NumStates()))
		}
		cp := cbs.Par{L: cbs.Speak{Val: "v", Cont: cbs.Nil{}}, R: cbs.Hear{Param: "x", Cont: cbs.Speak{Val: "x", Cont: cbs.Nil{}}}}
		bad, err := cbsEmbedMismatch(sys, cp)
		if err != nil {
			return "", false, err
		}
		if bad != nil {
			return "cbs embedding differs at " + cbs.String(bad), false, nil
		}
		return strings.Join(rows, " ") + " states; cbs-embed ok", true, nil
	}}
}
