package rand

import (
	"testing"

	"bpi/internal/syntax"
)

// The auxiliary draws the oracle registry leans on: all must come from the
// generator's single seeded stream so a law iteration replays byte-for-byte
// from its seed.

func TestAuxiliaryDrawsAreSeeded(t *testing.T) {
	g1, g2 := New(42, Default()), New(42, Default())
	for i := 0; i < 16; i++ {
		if a, b := g1.Intn(1000), g2.Intn(1000); a != b {
			t.Fatalf("draw %d: Intn diverged (%d vs %d) on equal seeds", i, a, b)
		}
	}
	if n := g1.PickName(); n != g2.PickName() {
		t.Error("PickName diverged on equal seeds")
	}
	if !syntax.Equal(g1.Term(), g2.Term()) {
		t.Error("Term diverged on equal seeds")
	}
}

func TestPickNameStaysInPool(t *testing.T) {
	cfg := Default()
	pool := map[string]bool{}
	for _, n := range cfg.Names {
		pool[string(n)] = true
	}
	g := New(7, cfg)
	for i := 0; i < 32; i++ {
		if n := g.PickName(); !pool[string(n)] {
			t.Fatalf("PickName produced %q outside the configured pool", n)
		}
	}
}

// The public dispatchers must land on the table-tested op implementations.
func TestMutateDispatchersDelegate(t *testing.T) {
	g := New(3, Default())
	p := g.Term()
	for i := 0; i < numEquivOps; i++ {
		if g.MutateEquiv(p) == nil {
			t.Fatal("MutateEquiv returned nil")
		}
	}
	for i := 0; i < numBreakOps; i++ {
		if g.MutateBreak(p) == nil {
			t.Fatal("MutateBreak returned nil")
		}
	}
}
