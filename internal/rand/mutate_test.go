package rand

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/syntax"
)

// TestMutateEquivOpsPreserveCongruence table-tests every MutateEquiv
// rewrite individually: each must produce a term strongly congruent (~c) to
// its input — the strongest equivalence of the paper, so preservation holds
// for all five relations, strong and weak.
func TestMutateEquivOpsPreserveCongruence(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := OracleConfig()
	cfg.MaxDepth = 2
	g := New(11, cfg)
	for op := 0; op < numEquivOps; op++ {
		for i := 0; i < 8; i++ {
			p := g.Term()
			q := g.equivOp(op, p)
			r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelCongruence, P: p, Q: q})
			if err != nil {
				t.Fatalf("op %d: congruence check: %v", op, err)
			}
			if !r.Related {
				t.Errorf("op %d is not equivalence-preserving:\n p=%s\n q=%s",
					op, syntax.String(p), syntax.String(q))
			}
		}
	}
}

// TestMutateBreakOpsBreakStrongBisimilarity table-tests every MutateBreak
// rewrite: each must produce a term that is NOT strongly labelled-bisimilar
// to its input (and a fortiori not step/barbed/one-step bisimilar or
// congruent).
func TestMutateBreakOpsBreakStrongBisimilarity(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := OracleConfig()
	cfg.MaxDepth = 2
	g := New(13, cfg)
	for op := 0; op < numBreakOps; op++ {
		for i := 0; i < 8; i++ {
			p := g.Term()
			q := g.breakOp(op, p)
			r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, P: p, Q: q})
			if err != nil {
				t.Fatalf("op %d: labelled check: %v", op, err)
			}
			if r.Related {
				t.Errorf("op %d failed to break strong bisimilarity:\n p=%s\n q=%s",
					op, syntax.String(p), syntax.String(q))
			}
		}
	}
}

// TestMutateBreakFreshBarbOpsBreakWeakToo: the fresh-barb family (ops 0-2)
// also breaks the weak equivalences; only the τ-prefix op (3) is documented
// as weak-preserving.
func TestMutateBreakFreshBarbOpsBreakWeakToo(t *testing.T) {
	ch := equiv.NewChecker(nil)
	cfg := OracleConfig()
	cfg.MaxDepth = 2
	g := New(17, cfg)
	for op := 0; op < numBreakOps-1; op++ {
		for i := 0; i < 6; i++ {
			p := g.Term()
			q := g.breakOp(op, p)
			r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
			if err != nil {
				t.Fatalf("op %d: weak labelled check: %v", op, err)
			}
			if r.Related {
				t.Errorf("fresh-barb op %d failed to break weak bisimilarity:\n p=%s\n q=%s",
					op, syntax.String(p), syntax.String(q))
			}
		}
	}
	// And the τ op preserves weak bisimilarity, as documented.
	for i := 0; i < 6; i++ {
		p := g.Term()
		q := g.breakOp(numBreakOps-1, p)
		r, err := ch.Decide(context.Background(), equiv.Query{Rel: cert.RelLabelled, Weak: true, P: p, Q: q})
		if err != nil {
			t.Fatalf("τ op: weak labelled check: %v", err)
		}
		if !r.Related {
			t.Errorf("τ op should preserve weak bisimilarity:\n p=%s\n q=%s",
				syntax.String(p), syntax.String(q))
		}
	}
}

// TestMutateLegacyStreamUnchanged pins the legacy Mutate draw sequence:
// same seed, same input, same mutants — so historical benchmark seeds and
// the theorem-1 sample tests keep reproducing byte-identical pairs.
func TestMutateLegacyStreamUnchanged(t *testing.T) {
	g1 := New(42, Default())
	g2 := New(42, Default())
	for i := 0; i < 64; i++ {
		p1, p2 := g1.Term(), g2.Term()
		q1, q2 := g1.Mutate(p1), g2.Mutate(p2)
		if !syntax.Equal(p1, p2) || !syntax.Equal(q1, q2) {
			t.Fatalf("iteration %d: legacy stream diverged: %s vs %s",
				i, syntax.String(q1), syntax.String(q2))
		}
	}
}

// TestWeightedGeneratorRespectsGates: the oracle profile never emits
// restrictions, and still covers every allowed constructor.
func TestWeightedGeneratorRespectsGates(t *testing.T) {
	g := New(23, OracleConfig())
	sawSum, sawPar, sawPrefix := false, false, false
	for i := 0; i < 300; i++ {
		p := g.Term()
		var walk func(q syntax.Proc)
		walk = func(q syntax.Proc) {
			switch v := q.(type) {
			case syntax.Res:
				t.Fatalf("oracle profile emitted a restriction: %s", syntax.String(p))
			case syntax.Sum:
				sawSum = true
				walk(v.L)
				walk(v.R)
			case syntax.Par:
				sawPar = true
				walk(v.L)
				walk(v.R)
			case syntax.Prefix:
				sawPrefix = true
				walk(v.Cont)
			case syntax.Match:
				walk(v.Then)
				walk(v.Else)
			}
		}
		walk(p)
	}
	if !sawSum || !sawPar || !sawPrefix {
		t.Fatalf("oracle profile coverage: sum=%v par=%v prefix=%v", sawSum, sawPar, sawPrefix)
	}
}
