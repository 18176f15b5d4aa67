package oracle

import (
	"context"
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	brand "bpi/internal/rand"
	"bpi/internal/refine"
	"bpi/internal/semantics"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// stressPair draws a small instance of one of the internal/stress topology
// families — the same generators the scaling bench runs at 10^5+ states,
// here at oracle-sized parameters. Most draws pair a topology with its
// rotation (equivalent by construction); a third of those are then broken
// by dropping a component, and one draw in four crosses two families
// (expected unrelated). The law never assumes the expected verdict — it
// only demands that every engine produces the same one.
func stressPair(g *brand.Gen) (syntax.Proc, syntax.Proc, string) {
	var p syntax.Proc
	var tag string
	switch g.Intn(4) {
	case 0:
		k, n := 2+g.Intn(2), 1+g.Intn(3)
		p, tag = stress.Rings(k, n), fmt.Sprintf("rings-%dx%d", k, n)
	case 1:
		n := 3 + g.Intn(6)
		p, tag = stress.Mesh(n), fmt.Sprintf("mesh-%d", n)
	case 2:
		d := 1 + g.Intn(2)
		p, tag = stress.Tree(2, d), fmt.Sprintf("tree-2x%d", d)
	default:
		p = stress.Rings(2, 1+g.Intn(2))
		return p, stress.Mesh(3 + g.Intn(4)), "cross-family"
	}
	q := stress.Rotate(p)
	if g.Intn(3) == 0 {
		parts := syntax.ParList(q)
		q = syntax.Group(parts[1:]...)
		tag += "/dropped"
	}
	return p, q, tag
}

// stressChecker returns a fresh certifying checker for the stress law. The
// Env checker does not certify, and broadcast-tree pair spaces exceed its
// default pair budget.
func stressChecker() *equiv.Checker {
	ch := equiv.NewChecker(nil)
	ch.MaxPairs = 1 << 16
	ch.Certify = true
	return ch
}

// lawStressAgree is the stress-topology differential law: on sampled stress
// pairs, the pair engine and the partition-refinement engine must return
// the same verdict for the two autonomous relations (strong step, strong
// barbed), and every certificate they emit must pass the independent
// verifier. A violation here shrinks like any
// other law: bpifuzz minimises the topology to a smallest disagreeing pair.
func lawStressAgree() Law {
	return Law{
		Name:   "stress/agree",
		Doc:    "pair and refinement engines (and their certificates) agree on stress-topology pairs",
		Config: richConfig(), // unused by Gen; stress terms are parameterised, not random ASTs
		Gen:    stressPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			// One autonomous LTS serves both refinement verdicts.
			g, err := lts.Explore(semantics.NewSystem(nil), []syntax.Proc{p, q},
				lts.Options{AutonomousOnly: true, MaxStates: 1 << 15})
			if err != nil {
				return "", err
			}
			if g.Truncated {
				return "", nil // refiner needs the full graph; vacuous at this budget
			}
			rels := []struct {
				name string
				ref  func(g *lts.Graph) (*cert.Certificate, bool, error)
			}{
				{cert.RelStep, refine.CertifyStrongStep},
				{cert.RelBarbed, refine.CertifyStrongBarbed},
			}
			for _, rel := range rels {
				res, err := stressChecker().Decide(ctx, equiv.Query{Rel: rel.name, P: p, Q: q})
				if err != nil {
					return "", err
				}
				if res.Cert == nil {
					return rel.name + ": certifying checker returned no certificate", nil
				}
				if err := cert.Verify(res.Cert); err != nil {
					return fmt.Sprintf("%s: pair-engine certificate rejected: %v", rel.name, err), nil
				}
				crt, ok, err := rel.ref(g)
				if err != nil {
					return "", err
				}
				if ok != res.Related {
					return fmt.Sprintf("%s: refinement=%v pair engine=%v", rel.name, ok, res.Related), nil
				}
				if crt == nil {
					return rel.name + ": refiner returned no certificate", nil
				}
				if err := cert.Verify(crt); err != nil {
					return fmt.Sprintf("%s: refiner certificate rejected: %v", rel.name, err), nil
				}
			}
			return "", nil
		},
	}
}
