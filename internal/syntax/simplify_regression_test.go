package syntax

import (
	"runtime"
	"testing"
)

// TestSimplifyIdempotentRegression pins a counterexample once found by
// TestQuickSimplifyIdempotentAndShrinking (quick seed 8772016212620242561):
// the decided match collapses to tau|tau inside a composition, and the first
// Simplify pass used to leave that Par nested — (tau|tau)|tau — while a
// second pass re-associated it. Re-flattening after child simplification
// makes one pass canonical.
func TestSimplifyIdempotentRegression(t *testing.T) {
	p := Par{
		If(c, b,
			If(b, b, Recv(a, []Name{"c_b"}, PNil), SendN(b, c)),
			Par{TauP(PNil), TauP(PNil)}),
		Restrict(TauP(PNil), "c_n", "b_n"),
	}
	s1 := Simplify(p)
	s2 := Simplify(s1)
	if !Equal(s1, s2) {
		t.Errorf("Simplify not idempotent: %s then %s", String(s1), String(s2))
	}
	if Size(s1) > Size(p) {
		t.Errorf("Simplify grew the term: %d > %d", Size(s1), Size(p))
	}
	// The same collapse inside a sum: the then-branch is itself a sum and
	// must be deduped against its sibling summand in one pass.
	q := Sum{If(a, a, Sum{TauP(PNil), SendN(b)}, PNil), TauP(PNil)}
	q1 := Simplify(q)
	if !Equal(q1, Simplify(q1)) {
		t.Errorf("sum collapse not idempotent: %s", String(q1))
	}
	if len(SumList(q1)) != 2 {
		t.Errorf("nested sum not deduped in one pass: %s", String(q1))
	}
}

// TestSimplifyWideTermAllocation pins that flattening a wide sum or
// composition is linear: one Simplify of 21,842 `a?` components, the most
// whose source `nu z.z?.(a?|…|a?)` fits the daemon's 64 KiB term cap,
// allocates under 64 MB. A flattening that copies the slice at every
// nesting level allocates about 3.9 GB for the composition.
func TestSimplifyWideTermAllocation(t *testing.T) {
	const width = 21842
	parts := make([]Proc, width)
	for i := range parts {
		parts[i] = RecvN(a)
	}
	for _, tc := range []struct {
		name    string
		p       Proc
		flatten func(Proc) []Proc
		want    int // components of the simplified term
	}{
		{"composition", Group(parts...), ParList, width},
		{"sum", Choice(parts...), SumList, 1},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := Simplify(tc.p)
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 64 {
			t.Errorf("%s: Simplify allocated %.0f MB, want under 64 MB", tc.name, mb)
		}
		if got := len(tc.flatten(s)); got != tc.want {
			t.Errorf("%s: simplified to %d components, want %d", tc.name, got, tc.want)
		}
	}
}
