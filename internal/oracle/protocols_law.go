package oracle

import (
	"context"
	"fmt"
	"sync"

	"bpi/internal/cert"
	"bpi/internal/protocols"
	brand "bpi/internal/rand"
	"bpi/internal/syntax"
)

// protoKey identifies a catalogue pair independently of which law iteration
// drew it — the shrinker mutates terms, so Check must recognise whether the
// pair it is handed still IS a catalogue scenario (full conformance check,
// expected verdict included) or a shrunken fragment (engine agreement
// only; there is no expected verdict for an arbitrary term pair).
func protoKey(p, q syntax.Proc) string {
	return syntax.String(p) + "\x00" + syntax.String(q)
}

var (
	protoOnce     sync.Once
	protoExpected map[string]protocols.Scenario
)

func protoScenarios() map[string]protocols.Scenario {
	protoOnce.Do(func() {
		protoExpected = map[string]protocols.Scenario{}
		for _, s := range protocols.Catalogue() {
			protoExpected[protoKey(s.Impl, s.Spec)] = s
		}
	})
	return protoExpected
}

// lawProtocolsConform is the protocol-library conformance law: on every
// catalogue scenario (healthy and fault-injected), the pair engine and the
// partition-refinement engine must agree with the scenario's expected
// verdict in the scenario's own relation, with certificates that pass the
// independent verifier. On shrunken
// pairs the expected-verdict clause drops away and the law degrades to
// engine agreement in the scenario relations — so a violation minimises
// like any other law without the shrinker having to preserve catalogue
// membership.
func lawProtocolsConform() Law {
	return Law{
		Name:   "protocols/conform",
		Doc:    "every protocol scenario's conformance verdict matches its spec on all engines, certificates verify",
		Config: richConfig(), // unused by Gen; scenarios are parameterised, not random ASTs
		Gen: func(g *brand.Gen) (syntax.Proc, syntax.Proc, string) {
			cat := protocols.Catalogue()
			s := cat[g.Intn(len(cat))]
			return s.Impl, s.Spec, s.Name
		},
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			s, known := protoScenarios()[protoKey(p, q)]
			if !known {
				// Shrunken pair: keep the engine-agreement half of the law
				// in the strong relations (weak closures on arbitrary
				// fragments are disproportionately expensive for a shrink
				// probe).
				s = protocols.Scenario{Impl: p, Spec: q, Rel: cert.RelStep}
			}
			res, err := protocols.DecideCtx(ctx, protocols.NewChecker(), s)
			if err != nil {
				return "", err
			}
			if known && res.Related != s.WantEquiv {
				return fmt.Sprintf("%s: pair-engine verdict %v, scenario expects %v (%s)",
					s.Name, res.Related, s.WantEquiv, res.Reason), nil
			}
			if res.Cert == nil {
				return s.Name + ": certifying checker returned no certificate", nil
			}
			if err := cert.Verify(res.Cert); err != nil {
				return fmt.Sprintf("%s: pair-engine certificate rejected: %v", s.Name, err), nil
			}
			refOK, refCert, err := protocols.Refine(s, 1<<15)
			if err != nil {
				return "", nil // joint LTS over budget on a pathological shrink probe; vacuous
			}
			if refOK != res.Related {
				return fmt.Sprintf("%s: refinement=%v pair engine=%v", s.Name, refOK, res.Related), nil
			}
			if refCert != nil {
				if err := cert.Verify(refCert); err != nil {
					return fmt.Sprintf("%s: refiner certificate rejected: %v", s.Name, err), nil
				}
			}
			return "", nil
		},
	}
}
