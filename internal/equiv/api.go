package equiv

import (
	"context"
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/syntax"
)

// Query is one question Decide answers: are P and Q related by Rel?
type Query struct {
	// Rel names the relation, one of cert.Relations: cert.RelLabelled
	// (~ / ≈, Definitions 7/8), cert.RelBarbed (~b / ≈b, Definition 3),
	// cert.RelStep (~φ / ≈φ, Definition 5), cert.RelOneStep (~+ / ≈+,
	// Definitions 11/15) or cert.RelCongruence (~c / ≈c, Section 4).
	Rel string
	// Weak selects the weak relation.
	Weak bool
	P, Q syntax.Proc
	// MaxSubs caps the substitutions a congruence query tries (0 means
	// all). Under the cap a positive verdict means "no tried substitution
	// distinguishes them" and carries no certificate.
	MaxSubs int
}

// ErrRelation reports a Query whose Rel names no relation Decide answers.
type ErrRelation struct{ Rel string }

func (e ErrRelation) Error() string { return fmt.Sprintf("equiv: unknown relation %q", e.Rel) }

// Decide answers q. Labelled, barbed and step bisimilarity run the pair
// engine; ~+ and ~c run the one-step query over it and report no Pairs
// and no Reason. Result.Cert is the verdict's certificate when the
// checker's Certify flag is set (bar a related ~c truncated by MaxSubs),
// and nil otherwise. A canceled or expired ctx aborts the query with an
// ErrCanceled wrapping ctx.Err().
func (c *Checker) Decide(ctx context.Context, q Query) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, ErrCanceled{err}
	}
	switch q.Rel {
	case cert.RelLabelled, cert.RelBarbed, cert.RelStep:
		pi, qi, err := c.internPair(q.P, q.Q)
		if err != nil {
			return Result{}, err
		}
		return c.run(ctx, pi, qi, spec{q.Rel, q.Weak})
	case cert.RelOneStep:
		return c.oneStep(ctx, q)
	case cert.RelCongruence:
		return c.congruence(ctx, q)
	}
	return Result{}, ErrRelation{q.Rel}
}

// The forwards below are one call of Decide each. The benchmark harness,
// perfbench, is their only caller (nine call sites in perfbench/inputs.go
// and perfbench/ladderchild); they go once it calls Decide.

func (c *Checker) Labelled(p, q syntax.Proc, weak bool) (Result, error) {
	return c.Decide(context.Background(), Query{Rel: cert.RelLabelled, Weak: weak, P: p, Q: q})
}

func (c *Checker) LabelledCtx(ctx context.Context, p, q syntax.Proc, weak bool) (Result, error) {
	return c.Decide(ctx, Query{Rel: cert.RelLabelled, Weak: weak, P: p, Q: q})
}

func (c *Checker) Barbed(p, q syntax.Proc, weak bool) (Result, error) {
	return c.Decide(context.Background(), Query{Rel: cert.RelBarbed, Weak: weak, P: p, Q: q})
}

func (c *Checker) BarbedCtx(ctx context.Context, p, q syntax.Proc, weak bool) (Result, error) {
	return c.Decide(ctx, Query{Rel: cert.RelBarbed, Weak: weak, P: p, Q: q})
}

func (c *Checker) Step(p, q syntax.Proc, weak bool) (Result, error) {
	return c.Decide(context.Background(), Query{Rel: cert.RelStep, Weak: weak, P: p, Q: q})
}

func (c *Checker) StepCtx(ctx context.Context, p, q syntax.Proc, weak bool) (Result, error) {
	return c.Decide(ctx, Query{Rel: cert.RelStep, Weak: weak, P: p, Q: q})
}

func (c *Checker) OneStepCertCtx(ctx context.Context, p, q syntax.Proc, weak bool) (*cert.Certificate, bool, error) {
	r, err := c.Decide(ctx, Query{Rel: cert.RelOneStep, Weak: weak, P: p, Q: q})
	return r.Cert, r.Related, err
}

func (c *Checker) CongruenceBoundedCertCtx(ctx context.Context, p, q syntax.Proc, weak bool, maxSubs int) (*cert.Certificate, bool, error) {
	r, err := c.Decide(ctx, Query{Rel: cert.RelCongruence, Weak: weak, P: p, Q: q, MaxSubs: maxSubs})
	return r.Cert, r.Related, err
}
