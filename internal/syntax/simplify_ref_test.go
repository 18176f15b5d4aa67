package syntax

import (
	"slices"
	"sort"
	"strings"

	"bpi/internal/names"
)

// RefSimplify exports refSimplify to the package's external tests, whose
// corpus (key_ref_test.go) needs the parser, the semantics and the stress
// and protocol catalogues, all of which import this package.
var RefSimplify = refSimplify

// refSimplify is the Simplify that rebuilds every node it visits: a new
// Prefix, Match and Res for every one it meets, and for every sum and
// composition a new spine over operands keyed one string each. Simplify
// returns what is already simplified as it is instead, and must return a
// term Equal to this one (not merely α-equal), since the store prints a
// term as it was first interned.
func refSimplify(p Proc) Proc {
	return refSimplifyIn(p, nil)
}

func refSimplifyIn(p Proc, inst names.Set) Proc {
	switch t := p.(type) {
	case Nil, Call:
		return p
	case Prefix:
		if in, ok := t.Pre.(In); ok {
			inner := extend(inst, in.Params)
			return Prefix{t.Pre, refSimplifyIn(t.Cont, inner)}
		}
		return Prefix{t.Pre, refSimplifyIn(t.Cont, inst)}
	case Sum:
		var parts []Proc
		for _, q := range SumList(p) {
			parts = appendSum(parts, refSimplifyIn(q, inst))
		}
		return Choice(refSortByKey(parts, true)...)
	case Par:
		var parts []Proc
		for _, q := range ParList(p) {
			parts = appendPar(parts, refSimplifyIn(q, inst))
		}
		return Group(refSortByKey(parts, false)...)
	case Res:
		body := refSimplifyIn(t.Body, inst)
		if !FreeNames(body).Contains(t.X) {
			return body
		}
		return refSortRes(Res{t.X, body})
	case Match:
		if t.X == t.Y {
			return refSimplifyIn(t.Then, inst)
		}
		if !inst.Contains(t.X) && !inst.Contains(t.Y) {
			return refSimplifyIn(t.Else, inst)
		}
		return Match{t.X, t.Y, refSimplifyIn(t.Then, inst), refSimplifyIn(t.Else, inst)}
	case Rec:
		return p
	default:
		panic("syntax: unknown process node")
	}
}

func refSortByKey(ps []Proc, dedupe bool) []Proc {
	type keyed struct {
		key string
		p   Proc
	}
	ks := make([]keyed, 0, len(ps))
	for _, p := range ps {
		if _, isNil := p.(Nil); !isNil {
			ks = append(ks, keyed{Key(p), p})
		}
	}
	slices.SortStableFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := ps[:0]
	for i, k := range ks {
		if dedupe && i > 0 && k.key == ks[i-1].key {
			continue
		}
		out = append(out, k.p)
	}
	return out
}

func refSortRes(r Res) Proc {
	var xs []Name
	var body Proc = r
	for {
		rr, ok := body.(Res)
		if !ok {
			break
		}
		xs = append(xs, rr.X)
		body = rr.Body
	}
	if len(xs) < 2 {
		return r
	}
	seen := map[Name]bool{}
	for _, x := range xs {
		if seen[x] {
			return r
		}
		seen[x] = true
	}
	orig := append([]Name(nil), xs...)
	sort.SliceStable(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for i := range xs {
		if xs[i] != orig[i] {
			return Restrict(body, xs...)
		}
	}
	return r
}
