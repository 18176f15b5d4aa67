package syntax

import (
	"fmt"
	"strings"

	"bpi/internal/names"
)

// FreshVariant returns a name based on base that is not in avoid. The result
// is deterministic given (base, avoid), which keeps substitution results
// reproducible and hashable. Machine-generated variants carry the reserved
// fresh marker, so they cannot collide with user names other than through
// avoid (which is checked).
func FreshVariant(base Name, avoid names.Set) Name {
	// Strip an existing marker suffix so repeated renaming does not grow.
	b := string(base)
	if i := strings.Index(b, names.FreshMarker); i >= 0 {
		b = b[:i]
	}
	if b == "" {
		b = "x"
	}
	for i := 1; ; i++ {
		cand := Name(fmt.Sprintf("%s%s%d", b, names.FreshMarker, i))
		if !avoid.Contains(cand) {
			return cand
		}
	}
}

// Apply performs the capture-avoiding simultaneous substitution pσ. Binders
// that would capture a name in σ's codomain (or that clash with σ's domain)
// are alpha-renamed to fresh variants. The result shares unaffected
// subterms with p.
func Apply(p Proc, s names.Subst) Proc {
	if s.IsIdentity() {
		return p
	}
	return applySubst(p, s)
}

func applySubst(p Proc, s names.Subst) Proc {
	switch t := p.(type) {
	case Nil:
		return t
	case Prefix:
		switch pre := t.Pre.(type) {
		case Tau:
			return Prefix{pre, applySubst(t.Cont, s)}
		case Out:
			return Prefix{Out{s.Apply(pre.Ch), s.ApplySlice(pre.Args)}, applySubst(t.Cont, s)}
		case In:
			params, cont := renameBinders(pre.Params, t.Cont, s)
			return Prefix{In{s.Apply(pre.Ch), params}, cont}
		}
		panic("syntax: unknown prefix")
	case Sum:
		return Sum{applySubst(t.L, s), applySubst(t.R, s)}
	case Par:
		return Par{applySubst(t.L, s), applySubst(t.R, s)}
	case Res:
		xs, body := renameBinders([]Name{t.X}, t.Body, s)
		return Res{xs[0], body}
	case Match:
		return Match{s.Apply(t.X), s.Apply(t.Y), applySubst(t.Then, s), applySubst(t.Else, s)}
	case Call:
		return Call{t.Id, s.ApplySlice(t.Args)}
	case Rec:
		params, body := renameBinders(t.Params, t.Body, s)
		return Rec{t.Id, params, body, s.ApplySlice(t.Args)}
	default:
		panic("syntax: unknown process node")
	}
}

// renameBinders pushes substitution s under the binders bs of body:
// it removes the binders from s's domain and alpha-renames any binder that
// would capture a codomain name. It returns the (possibly renamed) binders
// and the transformed body.
func renameBinders(bs []Name, body Proc, s names.Subst) ([]Name, Proc) {
	inner := s.Without(bs...)
	// Which binders would capture a name introduced by inner?
	free := FreeNames(body)
	danger := make(names.Set)
	for o, n := range inner {
		if o != n && free.Contains(o) {
			danger = danger.Add(n)
		}
	}
	needs := false
	for _, b := range bs {
		if danger.Contains(b) {
			needs = true
			break
		}
	}
	if !needs {
		if inner.IsIdentity() {
			return bs, body
		}
		return bs, applySubst(body, inner)
	}
	// Alpha-rename clashing binders to fresh variants, avoiding everything
	// in sight: current free names, codomain, other binders, and the
	// substitution's domain.
	avoid := free.Clone()
	avoid = avoid.AddAll(inner.Codomain()).AddAll(inner.Domain()).AddSlice(bs)
	newBs := make([]Name, len(bs))
	ren := names.Subst{}
	for i, b := range bs {
		if danger.Contains(b) {
			nb := FreshVariant(b, avoid)
			avoid = avoid.Add(nb)
			newBs[i] = nb
			ren[b] = nb
		} else {
			newBs[i] = b
		}
	}
	body = applySubst(body, ren)
	return newBs, applySubst(body, inner)
}

// Instantiate applies the simultaneous substitution [args/params] to body.
// It panics on arity mismatch (callers validate arities at construction).
func Instantiate(body Proc, params, args []Name) Proc {
	return Apply(body, names.FromSlices(params, args))
}

// substIdent replaces every free occurrence of the identifier id in p by the
// recursion rec (adjusting arguments): Call{id, ỹ} becomes
// Rec{rec.Id, rec.Params, rec.Body, ỹ}. This is the p[(rec X(x̃).p)/X]
// operation of rule (11). Name binders need no care here because rec is
// closed with respect to names at unfolding time only through its Args;
// the standard side condition (x̃ ⊇ fn(body)) makes the recursion body
// name-closed relative to its parameters, which CheckClosedRec verifies.
func substIdent(p Proc, id string, recTemplate Rec) Proc {
	switch t := p.(type) {
	case Nil:
		return t
	case Prefix:
		return Prefix{t.Pre, substIdent(t.Cont, id, recTemplate)}
	case Sum:
		return Sum{substIdent(t.L, id, recTemplate), substIdent(t.R, id, recTemplate)}
	case Par:
		return Par{substIdent(t.L, id, recTemplate), substIdent(t.R, id, recTemplate)}
	case Res:
		return Res{t.X, substIdent(t.Body, id, recTemplate)}
	case Match:
		return Match{t.X, t.Y, substIdent(t.Then, id, recTemplate), substIdent(t.Else, id, recTemplate)}
	case Call:
		if t.Id == id {
			return Rec{recTemplate.Id, recTemplate.Params, recTemplate.Body, t.Args}
		}
		return t
	case Rec:
		if t.Id == id { // inner rec shadows id
			return t
		}
		return Rec{t.Id, t.Params, substIdent(t.Body, id, recTemplate), t.Args}
	default:
		panic("syntax: unknown process node")
	}
}

// Unfold performs one unfolding of a recursion per rule (11):
// (rec X(x̃).p)⟨ỹ⟩ → p[(rec X(x̃).p)/X][ỹ/x̃].
func Unfold(r Rec) Proc {
	if len(r.Params) != len(r.Args) {
		panic(fmt.Sprintf("syntax: rec %s arity mismatch: %d params, %d args", r.Id, len(r.Params), len(r.Args)))
	}
	body := substIdent(r.Body, r.Id, Rec{Id: r.Id, Params: r.Params, Body: r.Body})
	return Instantiate(body, r.Params, r.Args)
}
