package equiv

import (
	"context"
	"errors"
	"math"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/stress"
)

// TestStrongReactionsInternedOnce pins the store traffic of a strong
// labelled query: each payload's reaction sets are derived once and serve
// as both the challenges and the answers. Deriving the challenges again
// cost 6,084 more intern hits (19,606) and as many derivation hits on this
// pair, with the same terms interned in the same order.
func TestStrongReactionsInternedOnce(t *testing.T) {
	p := stress.Rings(3, 2)
	c := NewChecker(nil)
	r, err := c.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: stress.Rotate(p)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Related || r.Pairs != 2197 {
		t.Fatalf("related=%v pairs=%d, want true 2197", r.Related, r.Pairs)
	}
	st := c.Store().Stats()
	if st.InternHits != 13522 || st.InternMisses != 2197 || st.DerivationHits != 5239 {
		t.Errorf("intern hits/misses %d/%d, derivation hits %d; want 13522/2197, 5239",
			st.InternHits, st.InternMisses, st.DerivationHits)
	}
}

// TestWarmQueryAllocs holds the pair engine to O(1) allocations per query
// rather than O(pairs): once every term's data is memoised, deciding
// mesh-12 against its rotation again (4,049 pairs) allocates only for
// interning the two input terms and for the geometric growth of the
// query's flat arrays and pair index (176 objects with Go 1.24, 200–220
// under -race, whose sync.Pool drops some of the key writers put back).
// Rebuilding and re-keying every unchanged operand of the input terms
// cost 537; one heap object per pair, obligation and candidate list cost
// 16,692.
func TestWarmQueryAllocs(t *testing.T) {
	g := stress.GoldenMesh()
	c := NewChecker(nil)
	var r Result
	var err error
	// AllocsPerRun's warm-up call is the cold query that memoises the terms.
	allocs := testing.AllocsPerRun(1, func() {
		r, err = c.Decide(context.Background(), Query{Rel: cert.RelStep, P: g.P, Q: g.Q})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Related || r.Pairs != 4049 {
		t.Fatalf("related=%v pairs=%d, want true 4049", r.Related, r.Pairs)
	}
	if allocs > 300 {
		t.Errorf("a warm mesh-12 query allocated %.0f objects, want at most 300 (%.2f a pair)",
			allocs, allocs/float64(r.Pairs))
	}
}

// TestPairIndexLimits pins the two limits of the engine's int32 numbering
// and one-word pair keys: a store id past 2^32 is refused with ErrBudget
// rather than let two pairs share a key, and a pair budget past
// math.MaxInt32 acts as math.MaxInt32.
func TestPairIndexLimits(t *testing.T) {
	c := NewChecker(nil)
	c.MaxPairs = math.MaxInt
	if got := c.maxPairs(); got != math.MaxInt32 {
		t.Errorf("maxPairs() = %d with MaxPairs = MaxInt, want %d", got, math.MaxInt32)
	}

	// The next term interned gets id 2^32 - 1, the largest a key can hold.
	c.Store().nextID.Store(1<<32 - 2)
	zero, err := parser.Parse("0")
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: zero, Q: zero})
	if err != nil || !r.Related || r.Pairs != 1 {
		t.Fatalf("0 ~ 0 at id 2^32-1: related=%v pairs=%d err=%v", r.Related, r.Pairs, err)
	}
	out, err := parser.Parse("a!")
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: out, Q: zero})
	var eb ErrBudget
	if !errors.As(err, &eb) {
		t.Fatalf("a pair with id 2^32: err = %v, want ErrBudget", err)
	}
}
