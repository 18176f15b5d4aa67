package equiv

import (
	"context"
	"math"
	"runtime"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// TestStrongReactionsInternedOnce pins the store traffic of one fresh
// decision per game: the intern and derivation hits and misses that bpid's
// bpid_store_* series and the benchmark's hit ratios read. In the strong
// labelled row each payload's reaction sets are derived once and serve as
// both the challenges and the answers, and every pair has one term on both
// sides, whose reaction sets are derived once for both. Deriving the
// challenges again cost 6,084 more intern hits (19,606) and as many
// derivation hits on that pair; deriving each side's sets apart cost 3,042
// more intern hits (13,522) and as many derivation hits (5,239). The step
// and barbed rows pin the τ and autonomous memos and their closures, and a
// weak barbed pair that fails its barb check. The misses do not move as
// long as the same terms are interned in the same order.
func TestStrongReactionsInternedOnce(t *testing.T) {
	rings := stress.Rings(3, 2)
	mesh := stress.GoldenMesh()
	parse := func(src string) syntax.Proc {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name    string
		q       Query
		related bool
		pairs   int
		// intern hits and misses, derivation hits and misses
		want [4]uint64
	}{
		{"rings-3x2 strong labelled", Query{Rel: cert.RelLabelled, P: rings, Q: stress.Rotate(rings)},
			true, 2197, [4]uint64{10480, 2197, 2197, 5239}},
		{"mesh-12 strong step", Query{Rel: cert.RelStep, P: mesh.P, Q: mesh.Q},
			true, 4049, [4]uint64{933, 377, 377, 377}},
		{"rings-3x2 weak step", Query{Rel: cert.RelStep, Weak: true, P: rings, Q: stress.Rotate(rings)},
			true, 3112, [4]uint64{82, 64, 7263, 128}},
		{"weak barbed, unrelated", Query{Rel: cert.RelBarbed, Weak: true,
			P: parse("nu c.(c! | c?.tau.a! | tau.b!)"), Q: parse("tau.a! + tau.b!")},
			false, 18, [4]uint64{2, 9, 78, 18}},
	} {
		c := NewChecker(nil)
		r, err := c.Decide(context.Background(), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if r.Related != tc.related || r.Pairs != tc.pairs {
			t.Fatalf("%s: related=%v pairs=%d, want %v %d", tc.name, r.Related, r.Pairs, tc.related, tc.pairs)
		}
		st := c.Store().Stats()
		got := [4]uint64{st.InternHits, st.InternMisses, st.DerivationHits, st.DerivationMisses}
		if got != tc.want {
			t.Errorf("%s: intern hits/misses %d/%d, derivation hits/misses %d/%d; want %d/%d, %d/%d",
				tc.name, got[0], got[1], got[2], got[3], tc.want[0], tc.want[1], tc.want[2], tc.want[3])
		}
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

// TestPairIndexLimits pins the limit of the engine's int32 numbering, a
// pair budget past math.MaxInt32 acting as math.MaxInt32, and that the
// pair index takes store ids of any size: a pair whose ids pass 2^32 is
// decided like any other (a one-word key of two 32-bit ids refused it).
func TestPairIndexLimits(t *testing.T) {
	c := NewChecker(nil)
	c.MaxPairs = math.MaxInt
	if got := c.maxPairs(); got != math.MaxInt32 {
		t.Errorf("maxPairs() = %d with MaxPairs = MaxInt, want %d", got, math.MaxInt32)
	}

	// The terms interned next get ids from 2^32 + 1 on.
	c.Store().nextID.Store(1 << 32)
	p, err := parser.Parse("a! | b?(x).x!")
	if err != nil {
		t.Fatal(err)
	}
	q, err := parser.Parse("b?(y).y! | a!")
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q})
	if err != nil || !r.Related {
		t.Fatalf("ids past 2^32: related=%v pairs=%d err=%v, want related", r.Related, r.Pairs, err)
	}
	if st := c.Store().Stats(); st.Terms <= 1<<32 {
		t.Fatalf("store ids end at %d, want past 2^32", st.Terms)
	}
	fresh, err := NewChecker(nil).Decide(context.Background(), Query{Rel: cert.RelLabelled, P: p, Q: q})
	if err != nil || r.Pairs != fresh.Pairs {
		t.Errorf("ids past 2^32 explored %d pairs, small ids %d (err %v)", r.Pairs, fresh.Pairs, err)
	}
}

// perDecision runs f once to warm the package-level pools, then n times
// on one P, and returns the bytes and objects one run allocated.
func perDecision(n int, f func()) (bytes, objects float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		float64(after.Mallocs-before.Mallocs) / float64(n)
}

// TestColdQueryAllocs pins what one cold certified decision allocates:
// each run decides its pair on a fresh certifying checker, so every term is
// interned, derived and keyed again. The pair graph's arrays never copy on
// growth, each derivation appends into one pooled buffer, and an intern hit
// builds no key string; with the arrays grown by doubling, a list per
// subterm derived and a key per hit, mesh-12 took 3.22 MB in 21,280
// objects and rings-3x2 32.9 MB in 293,830 (2.11 MB, 15,599 and 21.8 MB,
// 244,575 without them). The pair index chains through the nodes, a
// certificate's moves are cut from one array, and a pair of one term
// derives its output and reaction sets once: with a map index, a move
// slice per pair and both sides derived apart, mesh-12 took 2.08 MB in
// 15,556 objects, rings-3x2 21.2 MB in 233,037 and the small pair 37.5 KB
// in 403 (1.75 MB, 15,126; 18.3 MB, 193,726; 32.2 KB, 334 without them).
// The small pair guards the first segment's and the index's first size: a
// batch item of a few pairs must stay small. The race detector drops
// pooled buffers at random, so the bounds are checked only without it.
func TestColdQueryAllocs(t *testing.T) {
	mesh := stress.GoldenMesh()
	rings := stress.Rings(3, 2)
	small := func(src string) syntax.Proc {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name       string
		q          Query
		pairs      int
		runs       int
		maxBytes   float64
		maxObjects float64
	}{
		{"mesh-12 step", Query{Rel: cert.RelStep, P: mesh.P, Q: mesh.Q}, 4049, 5, 1.95e6, 15_400},
		{"rings-3x2 labelled", Query{Rel: cert.RelLabelled, P: rings, Q: stress.Rotate(rings)}, 2197, 2, 20e6, 215_000},
		{"a?(x).x! | b! labelled", Query{Rel: cert.RelLabelled, P: small("a?(x).x! | b!"), Q: small("a?(y).y! | b!")}, 0, 20, 35_000, 370},
	} {
		var r Result
		var err error
		bytes, objects := perDecision(tc.runs, func() {
			c := NewChecker(nil)
			c.Certify = true
			r, err = c.Decide(context.Background(), tc.q)
		})
		if err != nil || !r.Related || r.Cert == nil || (tc.pairs > 0 && r.Pairs != tc.pairs) {
			t.Fatalf("%s: related=%v pairs=%d cert=%v err=%v", tc.name, r.Related, r.Pairs, r.Cert != nil, err)
		}
		t.Logf("%s: %d pairs, %.0f bytes and %.0f objects a decision", tc.name, r.Pairs, bytes, objects)
		if raceEnabled {
			continue
		}
		if bytes > tc.maxBytes || objects > tc.maxObjects {
			t.Errorf("%s: a cold decision allocated %.0f bytes in %.0f objects, want at most %.0f in %.0f",
				tc.name, bytes, objects, tc.maxBytes, tc.maxObjects)
		}
	}

	// An intern hit of a term that is already simplified allocates only
	// Simplify's operand list: the key is written into a pooled buffer and
	// the term table is probed without a string.
	s := NewStore(nil)
	p := syntax.Simplify(mesh.P)
	if _, err := s.intern(p); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		if _, err := s.intern(p); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 && !raceEnabled {
		t.Errorf("an intern hit of a simplified mesh-12 allocated %.0f objects, want 1", n)
	}
}

// TestSegsNeverMove appends past the doubling segments into three fixed
// ones and reads every element back by index: each must sit where add put
// it, across every segment boundary, at an address that did not change.
func TestSegsNeverMove(t *testing.T) {
	var a segs[int32]
	var first, mid *int32
	n := segDoublingEnd - segFirst + 3*segMax
	for i := 0; i < n; i++ {
		if got := a.add(int32(i)); got != int32(i) {
			t.Fatalf("add returned %d for element %d", got, i)
		}
		if i == 0 {
			first = a.at(0)
		}
		if i == segFirst {
			mid = a.at(segFirst)
		}
	}
	if a.len() != n || len(a.s) != segDoubling+3 {
		t.Fatalf("%d elements in %d segments, want %d in %d", a.len(), len(a.s), n, segDoubling+3)
	}
	for i := 0; i < n; i++ {
		if got := *a.at(int32(i)); got != int32(i) {
			t.Fatalf("at(%d) = %d", i, got)
		}
	}
	if a.at(0) != first || a.at(segFirst) != mid {
		t.Error("an element moved when the array grew")
	}
}
