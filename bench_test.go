package bpi_test

// One benchmark per experiment family of DESIGN.md §5. The paper has no
// empirical tables; these benches measure the engine executing each
// reproduced result, so regressions in any pillar (semantics, equivalences,
// axiomatisation, examples, baselines) show up as time/alloc changes.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bpi/internal/axioms"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/machine"
	"bpi/internal/maytest"
	"bpi/internal/names"
	"bpi/internal/papers"
	"bpi/internal/pi"
	"bpi/internal/pvm"
	"bpi/internal/ram"
	brand "bpi/internal/rand"
	"bpi/internal/refine"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// BenchmarkE1_Step measures one broadcast composition step (Table 3 rules
// 12–14) on a 1-sender/8-receiver system.
func BenchmarkE1_Step(b *testing.B) {
	sys := semantics.NewSystem(nil)
	parts := []syntax.Proc{syntax.SendN("a", "v")}
	for i := 0; i < 8; i++ {
		x := names.Name(fmt.Sprintf("x%d", i))
		parts = append(parts, syntax.Recv("a", []names.Name{x}, syntax.SendN(x)))
	}
	p := syntax.Group(parts...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Steps(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2_FreeNames measures the Lemma 1 bookkeeping (fn computation
// plus one transition round) on random terms.
func BenchmarkE2_FreeNames(b *testing.B) {
	sys := semantics.NewSystem(nil)
	g := brand.New(1, brand.Default())
	terms := make([]syntax.Proc, 64)
	for i := range terms {
		terms[i] = g.Term()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := terms[i%len(terms)]
		syntax.FreeNames(p)
		if _, err := sys.Steps(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_Counterexamples decides all five relations on every witness of
// Remarks 1–4 (fresh checker per iteration: no verdict caching).
func BenchmarkE3_Counterexamples(b *testing.B) {
	ws := papers.Witnesses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := equiv.NewChecker(nil)
		for _, w := range ws {
			if _, err := ch.Labelled(w.P, w.Q, false); err != nil {
				b.Fatal(err)
			}
			if _, err := ch.Barbed(w.P, w.Q, false); err != nil {
				b.Fatal(err)
			}
			if _, err := ch.Step(w.P, w.Q, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE4_Laws checks the structural laws (Lemma 6) under ~.
func BenchmarkE4_Laws(b *testing.B) {
	p := syntax.Send("a", []names.Name{"b"}, syntax.RecvN("c", "x"))
	q := syntax.TauP(syntax.SendN("b"))
	laws := [][2]syntax.Proc{
		{syntax.Group(p, syntax.PNil), p},
		{syntax.Group(p, q), syntax.Group(q, p)},
		{syntax.Choice(p, q), syntax.Choice(q, p)},
		{syntax.Restrict(p, "z"), p},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := equiv.NewChecker(nil)
		for _, lw := range laws {
			if _, err := ch.Labelled(lw[0], lw[1], false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE5_ParallelPreservation re-derives Lemma 9 on a sample context.
func BenchmarkE5_ParallelPreservation(b *testing.B) {
	pa, pb := syntax.RecvN("a"), syntax.RecvN("b")
	r := syntax.Recv("c", []names.Name{"z"}, syntax.SendN("z"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := equiv.NewChecker(nil)
		if _, err := ch.Labelled(syntax.Group(pa, r), syntax.Group(pb, r), false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7_Coincidence runs the Theorem 1 inclusion sampling.
func BenchmarkE7_Coincidence(b *testing.B) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := brand.New(12345, cfg)
		ch := equiv.NewChecker(nil)
		for j := 0; j < 10; j++ {
			p := g.Term()
			q := g.Mutate(p)
			if _, err := ch.Labelled(p, q, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE8_AxiomSoundness validates one instance of every axiom against
// the semantic congruence.
func BenchmarkE8_AxiomSoundness(b *testing.B) {
	cfg := brand.Default()
	cfg.MaxDepth = 2
	cfg.Names = []names.Name{"a", "b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := brand.New(4242, cfg)
		ch := equiv.NewChecker(nil)
		for _, ax := range axioms.Catalogue() {
			m := axioms.Material{P: g.Term(), Q: g.Term(), R: g.Term(), A: "a", B: "b", C: "c", X: "x"}
			lhs, rhs, ok := ax.Inst(m)
			if !ok {
				continue
			}
			if _, err := ch.Congruence(lhs, rhs, false); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE9_Completeness measures the Section 5 prover against random
// finite pairs.
func BenchmarkE9_Completeness(b *testing.B) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	cfg.Names = []names.Name{"a", "b"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := brand.New(20202, cfg)
		pr := axioms.NewProver(nil)
		for j := 0; j < 6; j++ {
			p := g.Term()
			q := g.Mutate(p)
			if _, err := pr.Decide(p, q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE10_CycleDetect runs the Example 1 detector exhaustively on a
// 3-ring.
func BenchmarkE10_CycleDetect(b *testing.B) {
	sys := semantics.NewSystem(papers.CycleEnvOnce())
	system := papers.CycleSystem(papers.RingGraph(3), "sig")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := machine.CanReachBarb(sys, system, "sig", 120000)
		if err != nil || !ok {
			b.Fatalf("detector failed: %v %v", ok, err)
		}
	}
}

// BenchmarkE11_Transactions runs the Example 2 detector on the
// cross-partition cycle scenario.
func BenchmarkE11_Transactions(b *testing.B) {
	sys := semantics.NewSystem(papers.TxnEnvOnce())
	h := []papers.Txn{
		{ID: "t1", Item: "x", Write: false, Part: "p1"},
		{ID: "t2", Item: "x", Write: true, Part: "p2"},
		{ID: "t2", Item: "y", Write: false, Part: "p2"},
		{ID: "t1", Item: "y", Write: true, Part: "p1"},
	}
	system := papers.TransactionSystem(h, "unif", "errc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := machine.CanReachBarb(sys, system, "errc", 200000)
		if err != nil || !ok {
			b.Fatalf("detector failed: %v %v", ok, err)
		}
	}
}

// BenchmarkE12_PVM compiles and delivers one point-to-point message.
func BenchmarkE12_PVM(b *testing.B) {
	sys := semantics.NewSystem(pvm.Env())
	tasks := map[names.Name]*pvm.Task{
		"root": {Instrs: []pvm.Instr{pvm.Send{To: "peer", Msg: "m"}}},
		"peer": {Instrs: []pvm.Instr{pvm.Receive{Var: "x"}, pvm.Send{To: "out", Msg: "x"}}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pvm.System(tasks)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := machine.CanReachBarb(sys, p, "out", 60000)
		if err != nil || !ok {
			b.Fatalf("delivery failed: %v %v", ok, err)
		}
	}
}

// BenchmarkE13_Expressiveness compares one broadcast to n receivers in bπ
// (one step) with the π simulation (n messages). The reported time is the
// engine cost; the semantic series (1 vs n) is asserted.
func BenchmarkE13_Expressiveness(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("broadcast-bpi-n%d", n), func(b *testing.B) {
			sys := semantics.NewSystem(nil)
			parts := []syntax.Proc{syntax.SendN("a", "v")}
			for i := 0; i < n; i++ {
				x := names.Name(fmt.Sprintf("x%d", i))
				parts = append(parts, syntax.Recv("a", []names.Name{x}, syntax.PNil))
			}
			p := syntax.Group(parts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := machine.Run(sys, p, machine.Options{MaxSteps: 10})
				if err != nil || res.Steps != 1 {
					b.Fatalf("bπ broadcast cost %d (%v)", res.Steps, err)
				}
			}
		})
		b.Run(fmt.Sprintf("simulate-pi-n%d", n), func(b *testing.B) {
			var send pi.Proc = pi.Nil{}
			for i := 0; i < n; i++ {
				send = pi.Out{Ch: "a", Arg: "v", Cont: send}
			}
			var p pi.Proc = send
			for i := 0; i < n; i++ {
				x := names.Name(fmt.Sprintf("x%d", i))
				p = pi.Par{L: p, R: pi.In{Ch: "a", Param: x, Cont: pi.Nil{}}}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := pi.TauSteps(p, 4*n); got != n {
					b.Fatalf("π broadcast cost %d, want %d", got, n)
				}
			}
		})
	}
}

// BenchmarkE14_PiEncoding measures the lock-protocol encoding of one π
// communication.
func BenchmarkE14_PiEncoding(b *testing.B) {
	src := pi.Par{
		L: pi.Out{Ch: "a", Arg: "b", Cont: pi.Nil{}},
		R: pi.In{Ch: "a", Param: "x", Cont: pi.Out{Ch: "x", Arg: "c", Cont: pi.Nil{}}},
	}
	sys := semantics.NewSystem(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := pi.Encode(src)
		if err != nil {
			b.Fatal(err)
		}
		ok, err := machine.CanReachBarb(sys, enc, "b", 100000)
		if err != nil || !ok {
			b.Fatalf("encoding lost the barb: %v %v", ok, err)
		}
	}
}

// BenchmarkE15_Scaling measures graph exploration against term size.
func BenchmarkE15_Scaling(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		parts := make([]syntax.Proc, n)
		for i := range parts {
			parts[i] = syntax.Send(names.Name(fmt.Sprintf("c%d", i)), nil, syntax.PNil)
		}
		p := syntax.Group(parts...)
		b.Run(fmt.Sprintf("explore-n%d", n), func(b *testing.B) {
			sys := semantics.NewSystem(nil)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := lts.Explore(sys, []syntax.Proc{p}, lts.Options{
					AutonomousOnly: true, MaxStates: 1 << 14,
				})
				if err != nil || g.NumStates() != 1<<n {
					b.Fatalf("graph: %v %v", g, err)
				}
			}
		})
	}
}

// BenchmarkEquivCheckerScaling measures labelled bisimilarity checking cost
// against term depth (ablation: the pair-engine's growth).
func BenchmarkEquivCheckerScaling(b *testing.B) {
	for _, depth := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			cfg := brand.Default()
			cfg.MaxDepth = depth
			g := brand.New(7, cfg)
			pairs := make([][2]syntax.Proc, 8)
			for i := range pairs {
				p := g.Term()
				pairs[i] = [2]syntax.Proc{p, g.Mutate(p)}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch := equiv.NewChecker(nil)
				pr := pairs[i%len(pairs)]
				if _, err := ch.Labelled(pr[0], pr[1], false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE16_WeakCongruence measures the weak congruence decision on the
// τ-law pair family.
func BenchmarkE16_WeakCongruence(b *testing.B) {
	lp := syntax.Send("a", nil, syntax.TauP(syntax.SendN("c")))
	lq := syntax.Send("a", nil, syntax.SendN("c"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := equiv.NewChecker(nil)
		ok, err := ch.Congruence(lp, lq, true)
		if err != nil || !ok {
			b.Fatalf("weak congruence: %v %v", ok, err)
		}
	}
}

// BenchmarkE17_MayTesting measures the observer sweep on the §6 pair.
func BenchmarkE17_MayTesting(b *testing.B) {
	p := syntax.Send("a", nil, syntax.Choice(syntax.SendN("b"), syntax.SendN("c")))
	q := syntax.Choice(
		syntax.Send("a", nil, syntax.SendN("b")),
		syntax.Send("a", nil, syntax.SendN("c")))
	obs := maytest.TraceObservers([]names.Name{"a", "b", "c"}, 2, maytest.DefaultSuccess)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := maytest.Distinguish(nil, p, q, obs, maytest.DefaultSuccess, 0)
		if err != nil || v.Distinguisher != nil {
			b.Fatalf("maytest: %v %v", v, err)
		}
	}
}

// BenchmarkE18_RAM measures the Minsky-machine doubling computation.
func BenchmarkE18_RAM(b *testing.B) {
	double := ram.Program{
		ram.DecJz{R: 0, NextPos: 1, NextZero: 3},
		ram.Inc{R: 1, Next: 2},
		ram.Inc{R: 1, Next: 0},
		ram.Halt{},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := ram.HaltsMaybe(double, []int{2, 0}, 300000)
		if err != nil || !ok {
			b.Fatalf("ram: %v %v", ok, err)
		}
	}
}

// BenchmarkE19_Refinement measures the partition-refinement engine against
// the pair engine on one workload.
func BenchmarkE19_Refinement(b *testing.B) {
	p := syntax.Group(
		syntax.Send("a", nil, syntax.SendN("b")),
		syntax.Recv("a", nil, syntax.SendN("c")),
		syntax.TauP(syntax.RecvN("b")),
	)
	q := syntax.Group(
		syntax.TauP(syntax.RecvN("b")),
		syntax.Send("a", nil, syntax.SendN("b")),
		syntax.Recv("a", nil, syntax.SendN("c")),
	)
	b.Run("refine", func(b *testing.B) {
		sys := semantics.NewSystem(nil)
		for i := 0; i < b.N; i++ {
			g, err := lts.Explore(sys, []syntax.Proc{p, q}, lts.Options{AutonomousOnly: true})
			if err != nil {
				b.Fatal(err)
			}
			ok, err := refine.StrongStep(g)
			if err != nil || !ok {
				b.Fatalf("refine: %v %v", ok, err)
			}
		}
	})
	b.Run("pair-engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ch := equiv.NewChecker(nil)
			r, err := ch.Step(p, q, false)
			if err != nil || !r.Related {
				b.Fatalf("pair: %v %v", r, err)
			}
		}
	})
}

// BenchmarkEquivParallel measures a batch of labelled-bisimilarity queries
// against one shared term store: the single-goroutine baseline (workers=1)
// versus query-level fan-out across goroutines sharing one checker. At
// GOMAXPROCS>1 the fan-out variants should show wall-clock speedup; at
// GOMAXPROCS=1 they must not regress beyond scheduling noise.
func BenchmarkEquivParallel(b *testing.B) {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	g := brand.New(12345, cfg)
	pairs := make([][2]syntax.Proc, 24)
	for i := range pairs {
		p := g.Term()
		pairs[i] = [2]syntax.Proc{p, g.Mutate(p)}
	}
	queries := func(b *testing.B, ch *equiv.Checker, fanout int) {
		if fanout <= 1 {
			for _, pr := range pairs {
				if _, err := ch.Labelled(pr[0], pr[1], false); err != nil {
					b.Fatal(err)
				}
			}
			return
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < fanout; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					j := int(next.Add(1)) - 1
					if j >= len(pairs) {
						return
					}
					if _, err := ch.Labelled(pairs[j][0], pairs[j][1], false); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	widths := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		widths = append(widths, n)
	}
	for _, w := range widths {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				queries(b, equiv.NewChecker(nil), w)
			}
		})
	}
}

// BenchmarkNormalForm measures the syntactic §5.2 normalisation.
func BenchmarkNormalForm(b *testing.B) {
	p := syntax.Restrict(
		syntax.Group(
			syntax.Send("a", nil, syntax.SendN("x")),
			syntax.Recv("a", nil, syntax.SendN("b")),
			syntax.RecvN("x"),
		), "x")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nf, err := axioms.NormalForm(p)
		if err != nil || !axioms.IsNormalForm(nf) {
			b.Fatalf("normal form: %v", err)
		}
	}
}
