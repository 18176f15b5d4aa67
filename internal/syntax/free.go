package syntax

import "bpi/internal/names"

// FreeNames returns fn(p): the names of p not in the scope of any binder.
// Binders are νx (binding x), inputs x(ỹ) (binding ỹ in the continuation),
// and rec parameters (binding x̃ in the recursion body).
func FreeNames(p Proc) names.Set {
	out := make(names.Set)
	addFree(p, out, nil)
	return out
}

// addFree accumulates the free names of p into out, where bound holds the
// binders currently in scope.
func addFree(p Proc, out, bound names.Set) {
	switch t := p.(type) {
	case Nil:
	case Prefix:
		switch pre := t.Pre.(type) {
		case Tau:
			addFree(t.Cont, out, bound)
		case Out:
			addName(pre.Ch, out, bound)
			for _, a := range pre.Args {
				addName(a, out, bound)
			}
			addFree(t.Cont, out, bound)
		case In:
			addName(pre.Ch, out, bound)
			inner := extend(bound, pre.Params)
			addFree(t.Cont, out, inner)
		}
	case Sum:
		addFree(t.L, out, bound)
		addFree(t.R, out, bound)
	case Par:
		addFree(t.L, out, bound)
		addFree(t.R, out, bound)
	case Res:
		inner := extend(bound, []Name{t.X})
		addFree(t.Body, out, inner)
	case Match:
		addName(t.X, out, bound)
		addName(t.Y, out, bound)
		addFree(t.Then, out, bound)
		addFree(t.Else, out, bound)
	case Call:
		for _, a := range t.Args {
			addName(a, out, bound)
		}
	case Rec:
		for _, a := range t.Args {
			addName(a, out, bound)
		}
		inner := extend(bound, t.Params)
		addFree(t.Body, out, inner)
	default:
		panic("syntax: unknown process node")
	}
}

func addName(n Name, out, bound names.Set) {
	if !bound.Contains(n) {
		out.Add(n)
	}
}

// extend returns bound ∪ ns without mutating bound.
func extend(bound names.Set, ns []Name) names.Set {
	if len(ns) == 0 {
		return bound
	}
	inner := bound.Clone()
	if inner == nil {
		inner = make(names.Set)
	}
	return inner.AddSlice(ns)
}
