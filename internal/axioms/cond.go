// Package axioms mechanises Section 5 of the paper: the axiom system A for
// strong congruence (Table 6), the restriction axioms (Table 7), the
// expansion axiom (Table 8), head normal forms (Definition 17), and a
// decision procedure for A ⊢ p = q on finite processes that follows the
// completeness proof of Theorem 7 — world enumeration over complete
// conditions, strict summand matching, (H)-saturation of continuations and
// (SP)-style per-instantiation input matching.
package axioms

import (
	"fmt"
	"sort"
	"strings"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// Cond is a generalised condition φ ::= true | (x=y) | ¬φ | φ∧φ
// (Section 5.1). (x≠y) is sugar for ¬(x=y), false for ¬true.
type Cond interface {
	isCond()
	// Eval evaluates the condition under a name identification: two names
	// are equal iff eq maps them to the same representative.
	Eval(eq names.Subst) bool
	String() string
}

// True is the trivially satisfied condition.
type True struct{}

// Eq is the match condition (X=Y).
type Eq struct{ X, Y names.Name }

// Not is ¬C.
type Not struct{ C Cond }

// And is C1 ∧ C2.
type And struct{ L, R Cond }

func (True) isCond() {}
func (Eq) isCond()   {}
func (Not) isCond()  {}
func (And) isCond()  {}

// False returns the unsatisfiable condition ¬true.
func False() Cond { return Not{True{}} }

// Neq returns (x≠y).
func Neq(x, y names.Name) Cond { return Not{Eq{x, y}} }

// Conj folds a conjunction (empty = true).
func Conj(cs ...Cond) Cond {
	var out Cond = True{}
	for _, c := range cs {
		if _, ok := c.(True); ok {
			continue
		}
		if _, ok := out.(True); ok {
			out = c
		} else {
			out = And{out, c}
		}
	}
	return out
}

// Eval implementations.
func (True) Eval(names.Subst) bool     { return true }
func (e Eq) Eval(eq names.Subst) bool  { return eq.Apply(e.X) == eq.Apply(e.Y) }
func (n Not) Eval(eq names.Subst) bool { return !n.C.Eval(eq) }
func (a And) Eval(eq names.Subst) bool { return a.L.Eval(eq) && a.R.Eval(eq) }

func (True) String() string  { return "true" }
func (e Eq) String() string  { return fmt.Sprintf("[%s=%s]", e.X, e.Y) }
func (n Not) String() string { return "¬" + n.C.String() }
func (a And) String() string { return a.L.String() + "∧" + a.R.String() }

// CondNames returns the names mentioned by a condition.
func CondNames(c Cond) names.Set {
	switch t := c.(type) {
	case True:
		return names.NewSet()
	case Eq:
		return names.NewSet(t.X, t.Y)
	case Not:
		return CondNames(t.C)
	case And:
		return CondNames(t.L).AddAll(CondNames(t.R))
	}
	panic("axioms: unknown condition")
}

// World is a complete condition on a name set V (Definition 16),
// represented as the equivalence relation it induces: a substitution
// mapping every name of V to the least name of its class.
type World struct {
	V   []names.Name
	Rep names.Subst
}

// Cond renders the world as a complete condition on V: the conjunction of
// all equations within classes and disequations across classes.
func (w World) Cond() Cond {
	var parts []Cond
	for i, x := range w.V {
		for _, y := range w.V[i+1:] {
			if w.Rep.Apply(x) == w.Rep.Apply(y) {
				parts = append(parts, Eq{x, y})
			} else {
				parts = append(parts, Neq(x, y))
			}
		}
	}
	return Conj(parts...)
}

// String renders the world's partition, e.g. "{a=b | c}".
func (w World) String() string {
	classes := map[names.Name][]names.Name{}
	for _, x := range w.V {
		r := w.Rep.Apply(x)
		classes[r] = append(classes[r], x)
	}
	reps := make([]names.Name, 0, len(classes))
	for r := range classes {
		reps = append(reps, r)
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range reps {
		if i > 0 {
			b.WriteString(" | ")
		}
		for j, x := range classes[r] {
			if j > 0 {
				b.WriteByte('=')
			}
			b.WriteString(string(x))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// Worlds lists every partition of V (every complete condition on V,
// Definition 16). The count is the Bell number of |V|; callers should keep
// V small (≤ 6 names ⇒ 203 worlds).
func Worlds(v names.Set) []World {
	var out []World
	eachWorld(v, func(w World) bool {
		out = append(out, w)
		return true
	})
	return out
}

// eachWorld calls f on the partitions of V one at a time, in the order
// Worlds lists them, until f returns false. Only the world f is given is
// built, so a caller that stops early pays for the worlds it looked at.
func eachWorld(v names.Set, f func(World) bool) {
	sorted := v.Sorted()
	var rec func(i int, classes [][]names.Name) bool
	rec = func(i int, classes [][]names.Name) bool {
		if i == len(sorted) {
			rep := names.Subst{}
			for _, cls := range classes {
				least := cls[0]
				for _, x := range cls {
					if x < least {
						least = x
					}
				}
				for _, x := range cls {
					rep[x] = least
				}
			}
			return f(World{V: append([]names.Name(nil), sorted...), Rep: rep})
		}
		x := sorted[i]
		for k := range classes {
			classes[k] = append(classes[k], x)
			more := rec(i+1, classes)
			classes[k] = classes[k][:len(classes[k])-1]
			if !more {
				return false
			}
		}
		return rec(i+1, append(classes, []names.Name{x}))
	}
	rec(0, nil)
}

// Satisfiable reports that some world satisfies φ, checking the worlds
// until one does.
func Satisfiable(phi Cond, v names.Set) bool {
	u := v.Clone().AddAll(CondNames(phi))
	found := false
	eachWorld(u, func(w World) bool {
		found = phi.Eval(w.Rep)
		return !found
	})
	return found
}

// CondProc builds the process φp (the paper's shorthand for φp,nil),
// compiling a generalised condition into nested matches of the core syntax.
func CondProc(c Cond, p syntax.Proc) syntax.Proc {
	return compileCond(c, p, syntax.PNil)
}

// CondProc2 builds φp,q: behaves as yes when c holds and as no otherwise.
// ¬ compiles by swapping branches; ∧ by nesting.
func CondProc2(c Cond, yes, no syntax.Proc) syntax.Proc {
	return compileCond(c, yes, no)
}

func compileCond(c Cond, yes, no syntax.Proc) syntax.Proc {
	switch t := c.(type) {
	case True:
		return yes
	case Eq:
		return syntax.If(t.X, t.Y, yes, no)
	case Not:
		return compileCond(t.C, no, yes)
	case And:
		return compileCond(t.L, compileCond(t.R, yes, no), no)
	}
	panic("axioms: unknown condition")
}
