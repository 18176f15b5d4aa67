package oracle

import (
	"context"
	"errors"
	"fmt"

	"bpi/internal/axioms"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/names"
	"bpi/internal/obs"
	brand "bpi/internal/rand"
	"bpi/internal/semantics"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// mixedPair draws raw material for a differential law: a term paired with
// an equivalence-preserving mutant, a guaranteed strong-breaking mutant, or
// an independently drawn term.
func mixedPair(g *brand.Gen) (syntax.Proc, syntax.Proc, string) {
	p := g.Term()
	switch g.Intn(3) {
	case 0:
		return p, g.MutateEquiv(p), "equiv-mutant"
	case 1:
		return p, g.MutateBreak(p), "break-mutant"
	default:
		return p, g.Term(), "independent"
	}
}

// richConfig is the generation profile for engine-level laws: all
// constructors (including restriction), three free names, depth 3.
func richConfig() brand.Config {
	cfg := brand.Default()
	cfg.MaxDepth = 3
	return cfg
}

// proverConfig is the profile for prover-backed laws (see
// brand.OracleConfig): restriction-free, two free names, short prefixes.
func proverConfig() brand.Config { return brand.OracleConfig() }

// ---- Theorem 1: the three bisimilarities coincide ------------------------

// lawTheorem1 checks the mechanically checkable half of Theorem 1: the two
// inclusions rooted at labelled bisimilarity, ~ ⊆ ~b (Lemma 10) and
// ~ ⊆ ~φ (Lemma 11), strong and weak. Without context closure the two
// coarsenings are mutually INCOMPARABLE — τ + c̄ vs c̄ is step- but not
// barbed-bisimilar (step matches autonomous moves label-blindly, barbed
// matches τ by τ), while c̄.ā vs c̄ + c̄.ā is barbed- but not step-bisimilar
// (barbed ignores output moves) — both found by this fuzzer, so no chained
// form holds per-pair. The converse directions hold only up to context
// closure (the paper's coincidence statement quantifies over contexts),
// which no per-pair verdict can witness directly; the congruence-level
// agreement is exercised by inclusions/lattice and axioms/decide-agree.
func lawTheorem1(weak bool) Law {
	name := "theorem1/strong"
	mode := "strong"
	if weak {
		name = "theorem1/weak"
		mode = "weak"
	}
	return Law{
		Name:   name,
		Doc:    "labelled ⊆ barbed (Lemma 10) and labelled ⊆ step (Lemma 11) " + mode + " bisimilarity on finite terms",
		Config: richConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			lab, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, Weak: weak, P: p, Q: q})
			if err != nil {
				return "", err
			}
			if !lab.Related {
				return "", nil // both inclusions are vacuous
			}
			step, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelStep, Weak: weak, P: p, Q: q})
			if err != nil {
				return "", err
			}
			barb, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelBarbed, Weak: weak, P: p, Q: q})
			if err != nil {
				return "", err
			}
			switch {
			case !barb.Related:
				return fmt.Sprintf("%s: labelled bisimilar but not barbed bisimilar (Lemma 10 violated)", mode), nil
			case !step.Related:
				return fmt.Sprintf("%s: labelled bisimilar but not step bisimilar (Lemma 11 violated)", mode), nil
			}
			return "", nil
		},
	}
}

// ---- Inclusion lattice ----------------------------------------------------

func lawInclusions() Law {
	return Law{
		Name:   "inclusions/lattice",
		Doc:    "~c ⊆ ~+ ⊆ ~ ⊆ ≈ (congruence implies one-step implies labelled implies weak)",
		Config: proverConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			cong, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
			if err != nil {
				return "", err
			}
			one, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelOneStep, P: p, Q: q})
			if err != nil {
				return "", err
			}
			lab, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
			if err != nil {
				return "", err
			}
			weak, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
			if err != nil {
				return "", err
			}
			switch {
			case cong.Related && !one.Related:
				return "congruent but not one-step bisimilar (~c ⊄ ~+)", nil
			case one.Related && !lab.Related:
				return "one-step bisimilar but not labelled bisimilar (~+ ⊄ ~)", nil
			case lab.Related && !weak.Related:
				return "strongly but not weakly bisimilar (~ ⊄ ≈)", nil
			}
			return "", nil
		},
	}
}

// ---- Theorems 6 & 7: prover agreement ------------------------------------

func lawDecideAgree() Law {
	return Law{
		Name:   "axioms/decide-agree",
		Doc:    "axioms.Decide(p,q) iff p ~c q on finite terms (soundness: Thm 6; completeness: Thm 7)",
		Config: proverConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			r, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
			if err != nil {
				return "", err
			}
			sem := r.Related
			pr := env.NewProver()
			syn, err := pr.DecideCtx(ctx, p, q)
			if err != nil {
				return "", err
			}
			if sem != syn {
				if syn {
					return fmt.Sprintf("UNSOUND: A ⊢ p = q but p ≁c q (semantics=%v prover=%v)", sem, syn), nil
				}
				return fmt.Sprintf("INCOMPLETE: p ~c q but A ⊬ p = q (semantics=%v prover=%v)", sem, syn), nil
			}
			return "", nil
		},
	}
}

// ---- Tables 6/7: every axiom instance is sound ---------------------------

func lawAxiomInstances() Law {
	cfg := proverConfig()
	cfg.Names = []names.Name{"a", "b", "c"}
	cfg.MaxDepth = 2
	cat := axioms.Catalogue()
	return Law{
		Name:   "axioms/instances",
		Doc:    "every Table 6/7 axiom instance rewrites a term to a strongly congruent one (soundness per law)",
		Config: cfg,
		Gen: func(g *brand.Gen) (syntax.Proc, syntax.Proc, string) {
			ax := cat[g.Intn(len(cat))]
			m := axioms.Material{
				P: g.Term(), Q: g.Term(), R: g.Term(),
				A: g.PickName(), B: g.PickName(), C: g.PickName(),
			}
			avoid := syntax.FreeNames(m.P).AddAll(syntax.FreeNames(m.Q)).
				AddAll(syntax.FreeNames(m.R)).Add(m.A).Add(m.B).Add(m.C)
			m.X = syntax.FreshVariant("z", avoid)
			lhs, rhs, ok := ax.Inst(m)
			if !ok {
				// Side condition unmet: vacuous instance.
				return syntax.PNil, syntax.PNil, ax.Name + " (vacuous)"
			}
			return lhs, rhs, ax.Name
		},
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			r, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
			if err != nil {
				return "", err
			}
			if !r.Related {
				return "axiom instance is not semantically congruent", nil
			}
			return "", nil
		},
	}
}

// ---- Section 4: ~c is closed under substitution --------------------------

func lawSubstClosure() Law {
	return Law{
		Name:   "subst/congruence-closed",
		Doc:    "p ~c q implies pσ ~ qσ for every fusion σ of the free names (Section 4)",
		Config: proverConfig(),
		Gen: func(g *brand.Gen) (syntax.Proc, syntax.Proc, string) {
			p := g.Term()
			// Bias toward related pairs: closure is vacuous on unrelated ones.
			if g.Intn(4) != 0 {
				return p, g.MutateEquiv(p), "equiv-mutant"
			}
			return p, g.Term(), "independent"
		},
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			r, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
			if err != nil {
				return "", err
			}
			if !r.Related {
				return "", nil // vacuous
			}
			fn := syntax.FreeNames(p).AddAll(syntax.FreeNames(q)).Sorted()
			var msg string
			err = names.EachTuple(fn, len(fn), func(img []names.Name) error {
				sub := names.FromSlices(fn, img)
				r, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, P: syntax.Apply(p, sub), Q: syntax.Apply(q, sub)})
				if err == nil && !r.Related {
					msg = fmt.Sprintf("p ~c q but pσ ≁ qσ for σ=%v", sub)
					err = errViolated
				}
				return err
			})
			if errors.Is(err, errViolated) {
				return msg, nil
			}
			return "", err
		},
	}
}

// errViolated stops a law's walk at the first counterexample.
var errViolated = errors.New("oracle: law violated")

// ---- Observability: counters are measurements, not noise ------------------

// lawObsConsistent checks that the obs counters threaded through the engines
// are semantically meaningful: a counter total must equal the quantity the
// engine itself reports, and it must not depend on what the store had
// already memoised. Each leg builds its own checker, because a checker's
// tracer is fixed before its first query; the warm leg shares the cold
// leg's store.
func lawObsConsistent() Law {
	return Law{
		Name:   "obs/consistent",
		Doc:    "engine counters agree with engine results and are identical across cold-store, warm-store and daemon runs",
		Config: richConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			run := func(ch *equiv.Checker) (equiv.Result, map[string]int64, error) {
				tr := obs.New()
				ch.Obs = tr
				ch.Store().SetObs(tr)
				r, err := ch.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
				return r, tr.Counters(), err
			}
			cold := equiv.NewChecker(nil)
			res, resC, err := run(cold)
			if err != nil {
				return "", err
			}
			// A second checker over the now-warm store re-runs the engine
			// with every derivation cached.
			warm, warmC, err := run(equiv.NewCheckerWithStore(cold.Store()))
			if err != nil {
				return "", err
			}
			if res.Related != warm.Related {
				return fmt.Sprintf("verdict differs: cold store=%v warm store=%v", res.Related, warm.Related), nil
			}
			if got := resC["equiv.pairs_expanded"]; got != int64(res.Pairs) {
				return fmt.Sprintf("equiv.pairs_expanded=%d but Result.Pairs=%d", got, res.Pairs), nil
			}
			for _, name := range []string{"equiv.pairs_expanded", "equiv.worklist_pops"} {
				if resC[name] != warmC[name] {
					return fmt.Sprintf("%s: cold store=%d warm store=%d (memoisation leaked into a semantic counter)",
						name, resC[name], warmC[name]), nil
				}
			}
			// LTS totals must equal the graph the explorer returns.
			tr := obs.New()
			g, err := lts.ExploreCtx(ctx, semantics.NewSystem(nil), []syntax.Proc{p, q},
				lts.Options{AutonomousOnly: true, MaxStates: 1 << 14, Obs: tr})
			if err != nil {
				return "", err
			}
			c := tr.Counters()
			if c["lts.states"] != int64(g.NumStates()) || c["lts.edges"] != int64(g.NumEdges()) {
				return fmt.Sprintf("lts counters states=%d edges=%d, graph has %d and %d",
					c["lts.states"], c["lts.edges"], g.NumStates(), g.NumEdges()), nil
			}
			// The daemon path counts the same pair space (skip on a verdict-
			// cache hit: a cached verdict legitimately reports pairs=0).
			if env.Daemon != nil {
				served, err := env.Daemon.Equiv(ctx, service.EquivRequest{
					P: syntax.String(p), Q: syntax.String(q), Rel: cert.RelLabelled,
				})
				if err != nil {
					return "", err
				}
				if !served.Cached && served.Pairs != res.Pairs {
					return fmt.Sprintf("daemon explored %d pairs, checker %d", served.Pairs, res.Pairs), nil
				}
			}
			return "", nil
		},
	}
}

// ---- Engines agree: pair engine vs daemon ---------------------------------

func lawEnginesAgree() Law {
	return Law{
		Name:   "engines/agree",
		Doc:    "pair-engine and bpid-served verdicts — single, batched and LRU cache hits — agree; batch certificates verify",
		Config: richConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			for _, weak := range []bool{false, true} {
				seq, err := env.Seq.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, Weak: weak, P: p, Q: q})
				if err != nil {
					return "", err
				}
				if env.Daemon == nil {
					continue
				}
				req := service.EquivRequest{
					P: syntax.String(p), Q: syntax.String(q),
					Rel: cert.RelLabelled, Weak: weak,
				}
				cold, err := env.Daemon.Equiv(ctx, req)
				if err != nil {
					return "", err
				}
				warm, err := env.Daemon.Equiv(ctx, req)
				if err != nil {
					return "", err
				}
				if cold.Related != seq.Related {
					return fmt.Sprintf("weak=%v: daemon=%v sequential=%v", weak, cold.Related, seq.Related), nil
				}
				if warm.Related != cold.Related {
					return fmt.Sprintf("weak=%v: daemon warm (cached=%v) verdict=%v differs from cold=%v",
						weak, warm.Cached, warm.Related, cold.Related), nil
				}
			}
			if env.Daemon == nil {
				return "", nil
			}
			// The batch leg gets a daemon of its own. env.Daemon serves every
			// alpha-variant of a pair from one cache entry, whose reason names
			// the bound names of the variant decided first; only a fresh
			// cache makes reasons byte-comparable with a direct checker.
			d, err := StartDaemon(service.Config{Workers: 2})
			if err != nil {
				return "", err
			}
			defer d.Close()
			return batchAgree(ctx, d, p, q)
		},
	}
}

// verdict is the part of an equivalence verdict a caller acts on, without
// transport metadata (elapsed time, cache flag) and without the pairs
// counter, which legitimately varies with store memoisation.
type verdict struct {
	related bool
	reason  string
}

// batchAgree is the batch leg of engines/agree: both orientations of (p, q),
// strong and weak, posted as one certified /v1/equiv/batch twice. Every
// item must match a direct verdict from a fresh certifying checker and
// carry a certificate the verifier accepts, and the repeated batch must be
// served entirely from the verdict cache. The cache normalises orientation
// (PairKey sorts its term keys), so an item may match either its own row or
// the row deciding the same pair the other way round — never anything else.
func batchAgree(ctx context.Context, d *Daemon, p, q syntax.Proc) (string, error) {
	type row struct {
		p, q syntax.Proc
		weak bool
		want verdict
	}
	rows := []row{
		{p: p, q: q, weak: false},
		{p: p, q: q, weak: true},
		{p: q, q: p, weak: false},
		{p: q, q: p, weak: true},
	}
	// mirror[i] is the row deciding row i's pair in the opposite orientation.
	mirror := []int{2, 3, 0, 1}
	batch := service.BatchRequest{}
	for i := range rows {
		ch := equiv.NewChecker(nil)
		ch.Certify = true
		r, err := ch.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, Weak: rows[i].weak, P: rows[i].p, Q: rows[i].q})
		if err != nil {
			return "", err
		}
		rows[i].want = verdict{r.Related, r.Reason}
		batch.Pairs = append(batch.Pairs, service.EquivRequest{
			P: syntax.String(rows[i].p), Q: syntax.String(rows[i].q),
			Rel: cert.RelLabelled, Weak: rows[i].weak,
			Cert: true, TimeoutMs: 30000,
		})
	}
	for round := 0; round < 2; round++ {
		res, err := d.Batch(ctx, batch)
		if err != nil {
			return "", err
		}
		items, tr := res.Items, res.Trailer
		if tr.Total != len(rows) || tr.Succeeded != len(rows) || tr.Failed != 0 || tr.Shed != 0 {
			return fmt.Sprintf("batch round %d: healthy batch accounted as %+v", round, tr), nil
		}
		if len(items) != len(rows) {
			return fmt.Sprintf("batch round %d: %d items for %d pairs", round, len(items), len(rows)), nil
		}
		for _, it := range items {
			if it.Index < 0 || it.Index >= len(rows) {
				return fmt.Sprintf("batch round %d: item index %d out of range", round, it.Index), nil
			}
			if it.Error != nil || it.Equiv == nil {
				return fmt.Sprintf("batch round %d pair %d: typed error %+v", round, it.Index, it.Error), nil
			}
			want, wantM := rows[it.Index].want, rows[mirror[it.Index]].want
			if got := (verdict{it.Equiv.Related, it.Equiv.Reason}); got != want && got != wantM {
				return fmt.Sprintf("batch round %d pair %d (weak=%t): daemon verdict %+v, direct checker %+v (mirrored %+v)",
					round, it.Index, rows[it.Index].weak, got, want, wantM), nil
			}
			if it.Equiv.Certificate == nil {
				return fmt.Sprintf("batch round %d pair %d: verdict without a certificate", round, it.Index), nil
			}
			if err := cert.Verify(it.Equiv.Certificate); err != nil {
				return fmt.Sprintf("batch round %d pair %d: certificate rejected by the verifier: %v", round, it.Index, err), nil
			}
			if round == 1 && !it.Equiv.Cached {
				return fmt.Sprintf("batch pair %d: repeated batch missed the verdict cache", it.Index), nil
			}
		}
	}
	return "", nil
}
