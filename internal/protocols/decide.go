package protocols

import (
	"context"
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/refine"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// NewChecker returns a certifying pair-engine checker budgeted for the
// catalogue and ladder pair spaces.
func NewChecker() *equiv.Checker {
	chk := equiv.NewChecker(nil)
	chk.MaxPairs = 1 << 20
	chk.Certify = true
	return chk
}

// Decide runs the scenario's conformance query — Rel at Weak — on the given
// checker. The verdict answers "does Impl conform to Spec?"; compare with
// s.WantEquiv for the expected outcome.
func Decide(chk *equiv.Checker, s Scenario) (equiv.Result, error) {
	return DecideCtx(context.Background(), chk, s)
}

// DecideCtx is Decide honouring ctx.
func DecideCtx(ctx context.Context, chk *equiv.Checker, s Scenario) (equiv.Result, error) {
	if err := s.checkRel(); err != nil {
		return equiv.Result{}, err
	}
	return chk.Decide(ctx, equiv.Query{Rel: s.Rel, Weak: s.Weak, P: s.Impl, Q: s.Spec})
}

// checkRel refuses a relation that is not a conformance relation.
func (s Scenario) checkRel() error {
	if s.Rel != cert.RelStep && s.Rel != cert.RelBarbed {
		return fmt.Errorf("protocols: unknown relation %q (want %s or %s)", s.Rel, cert.RelStep, cert.RelBarbed)
	}
	return nil
}

// Refine decides the scenario's conformance with the partition-refinement
// engine over the joint autonomous LTS — the independent second opinion the
// conform law compares against the pair engine. Strong relations return the
// refiner's certificate; the weak refiners produce verdicts only (cert is
// nil), the pair engine supplies the weak certificates.
func Refine(s Scenario, maxStates int) (ok bool, crt *cert.Certificate, err error) {
	if err = s.checkRel(); err != nil {
		return false, nil, err
	}
	if maxStates <= 0 {
		maxStates = 1 << 16
	}
	g, err := lts.Explore(semantics.NewSystem(nil), []syntax.Proc{s.Impl, s.Spec},
		lts.Options{AutonomousOnly: true, MaxStates: maxStates})
	if err != nil {
		return false, nil, err
	}
	if g.Truncated {
		return false, nil, fmt.Errorf("protocols: joint LTS truncated at %d states", maxStates)
	}
	switch {
	case s.Rel == cert.RelStep && !s.Weak:
		crt, ok, err = refine.CertifyStrongStep(g)
	case s.Rel == cert.RelBarbed && !s.Weak:
		crt, ok, err = refine.CertifyStrongBarbed(g)
	case s.Rel == cert.RelStep && s.Weak:
		ok, err = refine.WeakStep(g)
	default:
		ok, err = refine.WeakBarbed(g)
	}
	return ok, crt, err
}
