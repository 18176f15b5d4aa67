// Package pi implements a monadic π-calculus fragment (Milner–Parrow–Walker
// style, early semantics) as the point-to-point baseline of the paper's
// expressiveness discussion, together with the uniform encoding of the
// (choice-free) π-calculus into the bπ-calculus sketched in the paper's
// Section 6 — a lock-based rendezvous protocol over broadcasts.
package pi

import (
	"fmt"
	"sort"
	"strings"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// Name aliases calculus names.
type Name = names.Name

// Proc is a π-calculus process.
type Proc interface{ isPi() }

// Nil is inert.
type Nil struct{}

// Out is the output prefix a̅b.P: a rendezvous offer to exactly one receiver.
type Out struct {
	Ch, Arg Name
	Cont    Proc
}

// In is the input prefix a(x).P.
type In struct {
	Ch, Param Name
	Cont      Proc
}

// Tau is the silent prefix.
type Tau struct{ Cont Proc }

// Sum is choice.
type Sum struct{ L, R Proc }

// Par is parallel composition (handshake communication).
type Par struct{ L, R Proc }

// Res is restriction νx P.
type Res struct {
	X    Name
	Body Proc
}

// Match is (x=y)P,Q.
type Match struct {
	X, Y       Name
	Then, Else Proc
}

func (Nil) isPi()   {}
func (Out) isPi()   {}
func (In) isPi()    {}
func (Tau) isPi()   {}
func (Sum) isPi()   {}
func (Par) isPi()   {}
func (Res) isPi()   {}
func (Match) isPi() {}

// Label is a π transition label.
type Label struct {
	Kind byte // 't' τ, '!' free output, 'b' bound output, '?' input
	Ch   Name
	Obj  Name
}

// String renders the label.
func (l Label) String() string {
	switch l.Kind {
	case 't':
		return "tau"
	case '!':
		return fmt.Sprintf("%s!%s", l.Ch, l.Obj)
	case 'b':
		return fmt.Sprintf("%s!(^%s)", l.Ch, l.Obj)
	default:
		return fmt.Sprintf("%s?%s", l.Ch, l.Obj)
	}
}

// Trans is a transition; input transitions are symbolic (Obj is the binder,
// Target the open continuation).
type Trans struct {
	Label  Label
	Target Proc
}

// Free returns fn(p).
func Free(p Proc) names.Set {
	out := make(names.Set)
	var walk func(q Proc, bound names.Set)
	walk = func(q Proc, bound names.Set) {
		add := func(n Name) {
			if !bound.Contains(n) {
				out.Add(n)
			}
		}
		switch t := q.(type) {
		case Nil:
		case Out:
			add(t.Ch)
			add(t.Arg)
			walk(t.Cont, bound)
		case In:
			add(t.Ch)
			inner := bound.Clone()
			if inner == nil {
				inner = make(names.Set)
			}
			walk(t.Cont, inner.Add(t.Param))
		case Tau:
			walk(t.Cont, bound)
		case Sum:
			walk(t.L, bound)
			walk(t.R, bound)
		case Par:
			walk(t.L, bound)
			walk(t.R, bound)
		case Res:
			inner := bound.Clone()
			if inner == nil {
				inner = make(names.Set)
			}
			walk(t.Body, inner.Add(t.X))
		case Match:
			add(t.X)
			add(t.Y)
			walk(t.Then, bound)
			walk(t.Else, bound)
		}
	}
	walk(p, nil)
	return out
}

// Subst is capture-avoiding single substitution p[new/old].
func Subst(p Proc, old, new Name) Proc {
	if old == new {
		return p
	}
	ren := func(n Name) Name {
		if n == old {
			return new
		}
		return n
	}
	switch t := p.(type) {
	case Nil:
		return t
	case Out:
		return Out{ren(t.Ch), ren(t.Arg), Subst(t.Cont, old, new)}
	case In:
		if t.Param == old {
			return In{ren(t.Ch), t.Param, t.Cont}
		}
		if t.Param == new {
			fresh := syntax.FreshVariant(t.Param, Free(t.Cont).Add(old).Add(new))
			return In{ren(t.Ch), fresh, Subst(Subst(t.Cont, t.Param, fresh), old, new)}
		}
		return In{ren(t.Ch), t.Param, Subst(t.Cont, old, new)}
	case Tau:
		return Tau{Subst(t.Cont, old, new)}
	case Sum:
		return Sum{Subst(t.L, old, new), Subst(t.R, old, new)}
	case Par:
		return Par{Subst(t.L, old, new), Subst(t.R, old, new)}
	case Res:
		if t.X == old {
			return t
		}
		if t.X == new {
			fresh := syntax.FreshVariant(t.X, Free(t.Body).Add(old).Add(new))
			return Res{fresh, Subst(Subst(t.Body, t.X, fresh), old, new)}
		}
		return Res{t.X, Subst(t.Body, old, new)}
	case Match:
		return Match{ren(t.X), ren(t.Y), Subst(t.Then, old, new), Subst(t.Else, old, new)}
	}
	panic("pi: unknown node")
}

// Steps returns the transitions of p under the standard early semantics:
// prefixes fire; a communication pairs one output with one input (COMM), a
// bound output with an input under the restriction (CLOSE).
func Steps(p Proc) []Trans {
	switch t := p.(type) {
	case Nil:
		return nil
	case Out:
		return []Trans{{Label{Kind: '!', Ch: t.Ch, Obj: t.Arg}, t.Cont}}
	case In:
		return []Trans{{Label{Kind: '?', Ch: t.Ch, Obj: t.Param}, t.Cont}}
	case Tau:
		return []Trans{{Label{Kind: 't'}, t.Cont}}
	case Sum:
		return append(Steps(t.L), Steps(t.R)...)
	case Match:
		if t.X == t.Y {
			return Steps(t.Then)
		}
		return Steps(t.Else)
	case Res:
		var out []Trans
		for _, tr := range Steps(t.Body) {
			l := tr.Label
			switch {
			case l.Kind == 't':
				out = append(out, Trans{l, Res{t.X, tr.Target}})
			case l.Ch == t.X:
				// Communication on the private channel is invisible outside;
				// prefixes on it cannot fire alone.
				continue
			case l.Kind == '!' && l.Obj == t.X:
				out = append(out, Trans{Label{Kind: 'b', Ch: l.Ch, Obj: t.X}, tr.Target})
			case l.Kind == '?' && l.Obj == t.X:
				// Alpha-rename the symbolic binder away from the restriction.
				fresh := syntax.FreshVariant(t.X, Free(tr.Target).Add(t.X).Add(l.Ch))
				out = append(out, Trans{Label{Kind: '?', Ch: l.Ch, Obj: fresh},
					Res{t.X, Subst(tr.Target, l.Obj, fresh)}})
			case l.Kind == 'b' && l.Obj == t.X:
				fresh := syntax.FreshVariant(t.X, Free(tr.Target).Add(t.X).Add(l.Ch))
				out = append(out, Trans{Label{Kind: 'b', Ch: l.Ch, Obj: fresh},
					Res{t.X, Subst(tr.Target, l.Obj, fresh)}})
			default:
				out = append(out, Trans{l, Res{t.X, tr.Target}})
			}
		}
		return out
	case Par:
		var out []Trans
		ls, rs := Steps(t.L), Steps(t.R)
		for _, lt := range ls {
			tgt := lt.Target
			l := lt.Label
			if l.Kind == '?' {
				// Keep the binder clear of the sibling's free names.
				if Free(t.R).Contains(l.Obj) {
					fresh := syntax.FreshVariant(l.Obj, Free(tgt).AddAll(Free(t.R)).Add(l.Ch))
					tgt = Subst(tgt, l.Obj, fresh)
					l = Label{Kind: '?', Ch: l.Ch, Obj: fresh}
				}
			}
			if l.Kind == 'b' && Free(t.R).Contains(l.Obj) {
				fresh := syntax.FreshVariant(l.Obj, Free(tgt).AddAll(Free(t.R)).Add(l.Ch))
				tgt = Subst(tgt, l.Obj, fresh)
				l = Label{Kind: 'b', Ch: l.Ch, Obj: fresh}
			}
			out = append(out, Trans{l, Par{tgt, t.R}})
		}
		for _, rt := range rs {
			tgt := rt.Target
			l := rt.Label
			if l.Kind == '?' && Free(t.L).Contains(l.Obj) {
				fresh := syntax.FreshVariant(l.Obj, Free(tgt).AddAll(Free(t.L)).Add(l.Ch))
				tgt = Subst(tgt, l.Obj, fresh)
				l = Label{Kind: '?', Ch: l.Ch, Obj: fresh}
			}
			if l.Kind == 'b' && Free(t.L).Contains(l.Obj) {
				fresh := syntax.FreshVariant(l.Obj, Free(tgt).AddAll(Free(t.L)).Add(l.Ch))
				tgt = Subst(tgt, l.Obj, fresh)
				l = Label{Kind: 'b', Ch: l.Ch, Obj: fresh}
			}
			out = append(out, Trans{l, Par{t.L, tgt}})
		}
		// COMM and CLOSE, both orientations.
		out = append(out, comms(ls, rs, t.L, t.R, true)...)
		out = append(out, comms(rs, ls, t.R, t.L, false)...)
		return out
	}
	panic("pi: unknown node")
}

// comms pairs outputs of movers with inputs of the sibling.
func comms(movers, sibs []Trans, _, _ Proc, moverLeft bool) []Trans {
	var out []Trans
	pair := func(m, s Proc) Proc {
		if moverLeft {
			return Par{m, s}
		}
		return Par{s, m}
	}
	for _, mt := range movers {
		ml := mt.Label
		if ml.Kind != '!' && ml.Kind != 'b' {
			continue
		}
		for _, st := range sibs {
			sl := st.Label
			if sl.Kind != '?' || sl.Ch != ml.Ch {
				continue
			}
			recv := Subst(st.Target, sl.Obj, ml.Obj)
			target := pair(mt.Target, recv)
			if ml.Kind == 'b' {
				// CLOSE: re-bind the extruded name around both.
				target = Res{ml.Obj, target}
			}
			out = append(out, Trans{Label{Kind: 't'}, target})
		}
	}
	return out
}

// WeakBarbs returns the channels a with p ⇓a: a τ*-derivative offers an
// output on a. Exploration is bounded by maxStates.
func WeakBarbs(p Proc, maxStates int) (names.Set, error) {
	if maxStates <= 0 {
		maxStates = 4096
	}
	out := make(names.Set)
	seen := map[string]bool{}
	queue := []Proc{p}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		k := Key(cur)
		if seen[k] {
			continue
		}
		if len(seen) >= maxStates {
			return nil, fmt.Errorf("pi: state budget exhausted")
		}
		seen[k] = true
		for _, tr := range Steps(cur) {
			switch tr.Label.Kind {
			case '!', 'b':
				out.Add(tr.Label.Ch)
			case 't':
				queue = append(queue, tr.Target)
			}
		}
	}
	return out, nil
}

// TauSteps counts the length of the longest τ-only run from p (bounded),
// the π side of the broadcast-cost comparison (bpibench's E13).
func TauSteps(p Proc, bound int) int {
	best := 0
	var rec func(q Proc, depth int)
	seen := map[string]int{}
	rec = func(q Proc, depth int) {
		if depth > best {
			best = depth
		}
		if depth >= bound {
			return
		}
		k := Key(q)
		if prev, ok := seen[k]; ok && prev >= depth {
			return
		}
		seen[k] = depth
		for _, tr := range Steps(q) {
			if tr.Label.Kind == 't' {
				rec(tr.Target, depth+1)
			}
		}
	}
	rec(p, 0)
	return best
}

// Key returns an alpha-canonical key for p.
func Key(p Proc) string {
	var b strings.Builder
	k := 0
	writeKey(p, &b, names.Subst{}, &k)
	return b.String()
}

func writeKey(p Proc, b *strings.Builder, env names.Subst, k *int) {
	bind := func(n Name) (Name, names.Subst) {
		*k++
		canon := Name(fmt.Sprintf("\x01%d", *k))
		inner := env.Clone()
		inner[n] = canon
		return canon, inner
	}
	switch t := p.(type) {
	case Nil:
		b.WriteByte('0')
	case Out:
		fmt.Fprintf(b, "%s!%s.", env.Apply(t.Ch), env.Apply(t.Arg))
		writeKey(t.Cont, b, env, k)
	case In:
		canon, inner := bind(t.Param)
		fmt.Fprintf(b, "%s?%s.", env.Apply(t.Ch), canon)
		writeKey(t.Cont, b, inner, k)
	case Tau:
		b.WriteString("t.")
		writeKey(t.Cont, b, env, k)
	case Sum:
		b.WriteString("+(")
		writeKey(t.L, b, env, k)
		b.WriteByte('|')
		writeKey(t.R, b, env, k)
		b.WriteByte(')')
	case Par:
		b.WriteString("&(")
		writeKey(t.L, b, env, k)
		b.WriteByte('|')
		writeKey(t.R, b, env, k)
		b.WriteByte(')')
	case Res:
		canon, inner := bind(t.X)
		fmt.Fprintf(b, "n(%s)", canon)
		writeKey(t.Body, b, inner, k)
	case Match:
		fmt.Fprintf(b, "m(%s=%s)(", env.Apply(t.X), env.Apply(t.Y))
		writeKey(t.Then, b, env, k)
		b.WriteByte('|')
		writeKey(t.Else, b, env, k)
		b.WriteByte(')')
	default:
		panic("pi: unknown node")
	}
}

// String renders a π process.
func String(p Proc) string {
	switch t := p.(type) {
	case Nil:
		return "0"
	case Out:
		return fmt.Sprintf("%s!%s.%s", t.Ch, t.Arg, String(t.Cont))
	case In:
		return fmt.Sprintf("%s?(%s).%s", t.Ch, t.Param, String(t.Cont))
	case Tau:
		return "tau." + String(t.Cont)
	case Sum:
		return "(" + String(t.L) + " + " + String(t.R) + ")"
	case Par:
		return "(" + String(t.L) + " | " + String(t.R) + ")"
	case Res:
		return fmt.Sprintf("nu %s.%s", t.X, String(t.Body))
	case Match:
		return fmt.Sprintf("[%s=%s](%s, %s)", t.X, t.Y, String(t.Then), String(t.Else))
	}
	panic("pi: unknown node")
}

// sortTrans orders transitions deterministically (testing helper).
func sortTrans(ts []Trans) {
	sort.SliceStable(ts, func(i, j int) bool {
		return ts[i].Label.String()+Key(ts[i].Target) < ts[j].Label.String()+Key(ts[j].Target)
	})
}
