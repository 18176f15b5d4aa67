package equiv

import (
	"context"

	"bpi/internal/syntax"
)

// Labelled decides labelled bisimilarity: p ~ q (Definition 8) or p ≈ q
// (Definition 7) when weak is set.
func (c *Checker) Labelled(p, q syntax.Proc, weak bool) (Result, error) {
	return c.LabelledCtx(context.Background(), p, q, weak)
}

// LabelledCtx is Labelled honouring ctx: cancellation or deadline expiry
// aborts the pair exploration with an ErrCanceled wrapping ctx.Err().
func (c *Checker) LabelledCtx(ctx context.Context, p, q syntax.Proc, weak bool) (Result, error) {
	return c.decide(ctx, p, q, spec{relLabelled, weak})
}

// Barbed decides barbed bisimilarity: p ~b q or p ≈b q (Definition 3).
func (c *Checker) Barbed(p, q syntax.Proc, weak bool) (Result, error) {
	return c.BarbedCtx(context.Background(), p, q, weak)
}

// BarbedCtx is Barbed honouring ctx (see LabelledCtx).
func (c *Checker) BarbedCtx(ctx context.Context, p, q syntax.Proc, weak bool) (Result, error) {
	return c.decide(ctx, p, q, spec{relBarbed, weak})
}

// Step decides step (φ) bisimilarity: p ~φ q or p ≈φ q (Definition 5).
func (c *Checker) Step(p, q syntax.Proc, weak bool) (Result, error) {
	return c.StepCtx(context.Background(), p, q, weak)
}

// StepCtx is Step honouring ctx (see LabelledCtx).
func (c *Checker) StepCtx(ctx context.Context, p, q syntax.Proc, weak bool) (Result, error) {
	return c.decide(ctx, p, q, spec{relStep, weak})
}

// decide interns both terms and runs the engine on them.
func (c *Checker) decide(ctx context.Context, p, q syntax.Proc, sp spec) (Result, error) {
	pi, qi, err := c.internPair(p, q)
	if err != nil {
		return Result{}, err
	}
	return c.run(ctx, pi, qi, sp)
}
