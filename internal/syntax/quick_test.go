package syntax

import (
	"math/rand"
	"testing"
	"testing/quick"

	"bpi/internal/names"
)

// genTerm builds a random finite term directly (the syntax package cannot
// import internal/rand, which depends on it).
func genTerm(rng *rand.Rand, depth int, pool []Name) Proc {
	if depth == 0 || rng.Intn(5) == 0 {
		return PNil
	}
	pick := func() Name { return pool[rng.Intn(len(pool))] }
	switch rng.Intn(7) {
	case 0:
		return Send(pick(), []Name{pick()}, genTerm(rng, depth-1, pool))
	case 1:
		bndr := Name(string(pick()) + "_b")
		inner := append(pool[:len(pool):len(pool)], bndr)
		return Recv(pick(), []Name{bndr}, genTerm(rng, depth-1, inner))
	case 2:
		return TauP(genTerm(rng, depth-1, pool))
	case 3:
		return Choice(genTerm(rng, depth-1, pool), genTerm(rng, depth-1, pool))
	case 4:
		return Group(genTerm(rng, depth-1, pool), genTerm(rng, depth-1, pool))
	case 5:
		bndr := Name(string(pick()) + "_n")
		inner := append(pool[:len(pool):len(pool)], bndr)
		return Restrict(genTerm(rng, depth-1, inner), bndr)
	default:
		return If(pick(), pick(), genTerm(rng, depth-1, pool), genTerm(rng, depth-1, pool))
	}
}

var quickPool = []Name{"a", "b", "c"}

// termFromSeed derives a deterministic random term from a quick-generated seed.
func termFromSeed(seed int64) Proc {
	return genTerm(rand.New(rand.NewSource(seed)), 4, quickPool)
}

func substFromSeed(seed int64) names.Subst {
	rng := rand.New(rand.NewSource(seed))
	s := names.Subst{}
	for _, n := range quickPool {
		if rng.Intn(2) == 0 {
			s[n] = quickPool[rng.Intn(len(quickPool))]
		}
	}
	return s
}

// Property: substitution composition — (pσ)ρ =α p(σ;ρ) when both are built
// from the same free pool (no binder interference by construction of the
// pools).
func TestQuickSubstComposition(t *testing.T) {
	f := func(ts, s1, s2 int64) bool {
		p := termFromSeed(ts)
		sig := substFromSeed(s1)
		rho := substFromSeed(s2)
		comp := names.Subst{} // σ;ρ: first σ, then ρ
		for o, n := range sig {
			comp[o] = rho.Apply(n)
		}
		for o, n := range rho {
			if _, ok := sig[o]; !ok {
				comp[o] = n
			}
		}
		lhs := Apply(Apply(p, sig), rho)
		rhs := Apply(p, comp)
		return AlphaEqual(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: identity substitution is the identity.
func TestQuickIdentitySubst(t *testing.T) {
	f := func(ts int64) bool {
		p := termFromSeed(ts)
		return Equal(Apply(p, names.Subst{}), p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: fn(pσ) = σ(fn(p)) for substitutions over free names.
func TestQuickFreeNamesUnderSubst(t *testing.T) {
	f := func(ts, ss int64) bool {
		p := termFromSeed(ts)
		sig := substFromSeed(ss)
		want := names.NewSet()
		for n := range FreeNames(p) {
			want = want.Add(sig.Apply(n))
		}
		return FreeNames(Apply(p, sig)).Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Simplify is idempotent and never grows the term.
func TestQuickSimplifyIdempotentAndShrinking(t *testing.T) {
	f := func(ts int64) bool {
		p := termFromSeed(ts)
		s1 := Simplify(p)
		s2 := Simplify(s1)
		return Equal(s1, s2) && Size(s1) <= Size(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Simplify preserves free names up to deletion (no new frees).
func TestQuickSimplifyFreeNames(t *testing.T) {
	f := func(ts int64) bool {
		p := termFromSeed(ts)
		return FreeNames(Simplify(p)).Minus(FreeNames(p)).Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: alpha-renaming a top restriction binder is invisible to Key.
func TestQuickAlphaInvariance(t *testing.T) {
	f := func(ts int64) bool {
		p := termFromSeed(ts)
		withX := Restrict(Apply(p, names.Single("a", "fresh_x")), "fresh_x")
		withY := Restrict(Apply(p, names.Single("a", "fresh_y")), "fresh_y")
		return Key(withX) == Key(withY)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
