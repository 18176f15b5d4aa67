package axioms

import (
	"fmt"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// NormalForm rewrites a finite process into the §5.2 normal form using only
// the axiom system: the expansion axiom (Table 8, in its condition-guarded
// form) eliminates every parallel composition, and the restriction axioms
// (Table 7) push every ν inward until it disappears (R1/RP3/RM1), turns into
// a τ (RP2), or fuses with an output into a bound-output prefix νx āx̃.p.
// The result is a sum of condition-guarded prefixes whose continuations are
// again in normal form.
//
// The expansion step is the guarded expander that Expand applies once, here
// with a composition that normalises each continuation in turn.
//
// Soundness: every rewrite is an axiom instance, so NormalForm(p) ~c p
// (Theorem 6) — verified on random terms in the tests. Arity caveat: like
// Table 8 itself, the expansion step is faithful on the uniform-arity
// fragment (see Expand); the paper's §5 is explicitly monadic.
func NormalForm(p syntax.Proc) (syntax.Proc, error) {
	if !syntax.IsFinite(p) {
		return nil, fmt.Errorf("axioms: normal form requires a finite process")
	}
	return norm(p), nil
}

func norm(p syntax.Proc) syntax.Proc {
	switch t := p.(type) {
	case syntax.Nil:
		return t
	case syntax.Prefix:
		return syntax.Prefix{Pre: t.Pre, Cont: norm(t.Cont)}
	case syntax.Sum:
		return syntax.Sum{L: norm(t.L), R: norm(t.R)}
	case syntax.Match:
		return syntax.Match{X: t.X, Y: t.Y, Then: norm(t.Then), Else: norm(t.Else)}
	case syntax.Res:
		return pushRes(t.X, norm(t.Body))
	case syntax.Par:
		return normPar(norm(t.L), norm(t.R))
	default:
		panic("axioms: non-finite node in NormalForm")
	}
}

// normPar eliminates one parallel composition of two normalized operands
// with the expansion axiom, normalizing each composed continuation in turn.
func normPar(a, b syntax.Proc) syntax.Proc {
	// Hoist static restrictions (bound-output atoms and stray ν) of both
	// operands to the outside, alpha-freshened (laws j/k of Lemma 6, all
	// axiom instances).
	var binders []names.Name
	avoid := syntax.FreeNames(a).AddAll(syntax.FreeNames(b))
	a, binders, avoid = hoist(a, binders, avoid)
	b, binders, _ = hoist(b, binders, avoid)
	la, ok1 := gsummands(a, True{})
	lb, ok2 := gsummands(b, True{})
	if !ok1 || !ok2 {
		// Should not happen for normalized, hoisted finite operands.
		panic("axioms: operand not a guarded prefix sum after hoisting")
	}
	out := expand(la, lb, a, b, normPar)
	// Re-bind the hoisted names.
	for i := len(binders) - 1; i >= 0; i-- {
		out = pushRes(binders[i], out)
	}
	return out
}

// hoist pulls static restrictions of p (at sum/match/top positions) out,
// renaming them fresh; returns the stripped process and the binder list.
func hoist(p syntax.Proc, binders []names.Name, avoid names.Set) (syntax.Proc, []names.Name, names.Set) {
	switch t := p.(type) {
	case syntax.Res:
		x := syntax.FreshVariant(t.X, avoid)
		avoid = avoid.Add(x)
		body := syntax.Rename(t.Body, t.X, x)
		binders = append(binders, x)
		return hoist(body, binders, avoid)
	case syntax.Sum:
		l, binders, avoid := hoist(t.L, binders, avoid)
		r, binders, avoid := hoist(t.R, binders, avoid)
		return syntax.Sum{L: l, R: r}, binders, avoid
	case syntax.Match:
		l, binders, avoid := hoist(t.Then, binders, avoid)
		r, binders, avoid := hoist(t.Else, binders, avoid)
		return syntax.Match{X: t.X, Y: t.Y, Then: l, Else: r}, binders, avoid
	default:
		return p, binders, avoid
	}
}

// pushRes pushes νx into a normalized term per Table 7.
func pushRes(x names.Name, p syntax.Proc) syntax.Proc {
	if !syntax.FreeNames(p).Contains(x) {
		return p // R1-unused
	}
	switch t := p.(type) {
	case syntax.Nil:
		return t
	case syntax.Sum: // R2
		return syntax.Sum{L: pushRes(x, t.L), R: pushRes(x, t.R)}
	case syntax.Match:
		switch {
		case t.X == t.Y: // (y=y): the then branch
			return pushRes(x, t.Then)
		case t.X == x || t.Y == x: // RM1: the private x equals nothing else
			return pushRes(x, t.Else)
		default: // RM2
			return syntax.Match{X: t.X, Y: t.Y,
				Then: pushRes(x, t.Then), Else: pushRes(x, t.Else)}
		}
	case syntax.Res:
		// R1 (swap) then push inside: νx νy q = νy νx q.
		return syntax.Res{X: t.X, Body: pushRes(x, t.Body)}
	case syntax.Prefix:
		switch pre := t.Pre.(type) {
		case syntax.Tau: // R3
			return syntax.TauP(pushRes(x, t.Cont))
		case syntax.In:
			if pre.Ch == x {
				return syntax.PNil // RP3
			}
			// Alpha: parameters never collide with x (binders are fresh).
			return syntax.Prefix{Pre: pre, Cont: pushRes(x, t.Cont)}
		case syntax.Out:
			if pre.Ch == x {
				return syntax.TauP(pushRes(x, t.Cont)) // RP2
			}
			for _, a := range pre.Args {
				if a == x {
					// Bound output: the ν fuses with the prefix; the
					// continuation keeps x in scope and stays as computed.
					return syntax.Res{X: x, Body: syntax.Prefix{Pre: pre, Cont: t.Cont}}
				}
			}
			return syntax.Prefix{Pre: pre, Cont: pushRes(x, t.Cont)} // R3
		}
		panic("axioms: unknown prefix")
	default:
		panic("axioms: unexpected node under restriction in normal form")
	}
}

// IsNormalForm reports whether p is in the §5.2 normal form: no parallel
// composition anywhere, and every restriction is a bound-output prefix
// (νx āx̃.q with x ∈ x̃ and x ∉ {a}).
func IsNormalForm(p syntax.Proc) bool {
	switch t := p.(type) {
	case syntax.Nil, syntax.Call:
		return true
	case syntax.Prefix:
		return IsNormalForm(t.Cont)
	case syntax.Sum:
		return IsNormalForm(t.L) && IsNormalForm(t.R)
	case syntax.Match:
		return IsNormalForm(t.Then) && IsNormalForm(t.Else)
	case syntax.Par:
		return false
	case syntax.Res:
		pre, ok := t.Body.(syntax.Prefix)
		if !ok {
			return false
		}
		out, ok := pre.Pre.(syntax.Out)
		if !ok || out.Ch == t.X {
			return false
		}
		carried := false
		for _, a := range out.Args {
			if a == t.X {
				carried = true
			}
		}
		return carried && IsNormalForm(pre.Cont)
	case syntax.Rec:
		return false
	default:
		return false
	}
}
