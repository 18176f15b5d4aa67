// Package cbs implements a baseline Calculus of Broadcasting Systems in the
// style of Prasad (CBS'91/'95): processes speak values into a single global
// ether and hear or discard what others speak. It exists as the comparison
// point of the paper's related-work discussion — bπ is "CBS plus channels
// plus mobility" — and the embedding ToBpi exhibits CBS as the one-channel
// fragment of the bπ-calculus, checked transition by transition by
// bpibench's E15 on one term and by the tests on random terms.
package cbs

import (
	"fmt"
	"sort"
	"strings"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

// Value is an atomic broadcast value.
type Value = names.Name

// Proc is a CBS process.
type Proc interface {
	isProc()
}

// Nil is the inert process.
type Nil struct{}

// Speak broadcasts Val and continues (v! p).
type Speak struct {
	Val  Value
	Cont Proc
}

// Hear receives any spoken value, binding it to Param in Cont (x? p).
type Hear struct {
	Param Value
	Cont  Proc
}

// Tau is the silent prefix.
type Tau struct{ Cont Proc }

// Sum is choice.
type Sum struct{ L, R Proc }

// Par is parallel composition: one speaker, everybody else hears or
// discards.
type Par struct{ L, R Proc }

// Match is the value conditional (v=w)p,q.
type Match struct {
	V, W       Value
	Then, Else Proc
}

func (Nil) isProc()   {}
func (Speak) isProc() {}
func (Hear) isProc()  {}
func (Tau) isProc()   {}
func (Sum) isProc()   {}
func (Par) isProc()   {}
func (Match) isProc() {}

// Label is a CBS transition label: τ, v! or v? (a hear with the value
// instantiated).
type Label struct {
	Kind byte // 't', '!', '?'
	Val  Value
}

// String renders "tau", "v!" or "v?".
func (l Label) String() string {
	if l.Kind == 't' {
		return "tau"
	}
	return fmt.Sprintf("%s%c", l.Val, l.Kind)
}

// Trans is one transition.
type Trans struct {
	Label  Label
	Target Proc
}

// Subst replaces free occurrences of old by new (capture-avoiding on Hear
// binders).
func Subst(p Proc, old, new Value) Proc {
	if old == new {
		return p
	}
	switch t := p.(type) {
	case Nil:
		return t
	case Tau:
		return Tau{Subst(t.Cont, old, new)}
	case Speak:
		v := t.Val
		if v == old {
			v = new
		}
		return Speak{v, Subst(t.Cont, old, new)}
	case Hear:
		if t.Param == old {
			return t // shadowed
		}
		if t.Param == new {
			// Alpha-rename the binder away to avoid capture.
			fresh := freshParam(t.Param, names.NewSet(old, new).AddAll(free(t.Cont)))
			body := Subst(t.Cont, t.Param, fresh)
			return Hear{fresh, Subst(body, old, new)}
		}
		return Hear{t.Param, Subst(t.Cont, old, new)}
	case Sum:
		return Sum{Subst(t.L, old, new), Subst(t.R, old, new)}
	case Par:
		return Par{Subst(t.L, old, new), Subst(t.R, old, new)}
	case Match:
		v, w := t.V, t.W
		if v == old {
			v = new
		}
		if w == old {
			w = new
		}
		return Match{v, w, Subst(t.Then, old, new), Subst(t.Else, old, new)}
	}
	panic("cbs: unknown node")
}

func freshParam(base Value, avoid names.Set) Value {
	return syntax.FreshVariant(base, avoid)
}

func free(p Proc) names.Set {
	out := make(names.Set)
	var walk func(q Proc, bound names.Set)
	walk = func(q Proc, bound names.Set) {
		switch t := q.(type) {
		case Nil:
		case Tau:
			walk(t.Cont, bound)
		case Speak:
			if !bound.Contains(t.Val) {
				out.Add(t.Val)
			}
			walk(t.Cont, bound)
		case Hear:
			inner := bound.Clone()
			if inner == nil {
				inner = make(names.Set)
			}
			walk(t.Cont, inner.Add(t.Param))
		case Sum:
			walk(t.L, bound)
			walk(t.R, bound)
		case Par:
			walk(t.L, bound)
			walk(t.R, bound)
		case Match:
			if !bound.Contains(t.V) {
				out.Add(t.V)
			}
			if !bound.Contains(t.W) {
				out.Add(t.W)
			}
			walk(t.Then, bound)
			walk(t.Else, bound)
		}
	}
	walk(p, nil)
	return out
}

// Discards reports p --v:-->: p ignores a broadcast (CBS: a process with no
// enabled hear ignores everything spoken; hears cannot be refused).
func Discards(p Proc) bool {
	switch t := p.(type) {
	case Nil, Speak, Tau:
		return true
	case Hear:
		return false
	case Sum:
		return Discards(t.L) && Discards(t.R)
	case Par:
		return Discards(t.L) && Discards(t.R)
	case Match:
		if t.V == t.W {
			return Discards(t.Then)
		}
		return Discards(t.Else)
	}
	panic("cbs: unknown node")
}

// Reacts returns the reactions of p to a spoken value v: if p discards, it
// stays put; otherwise every way of hearing v. A choice is resolved by the
// branch that hears; a parallel composition reacts componentwise (hearing
// cannot be refused).
func Reacts(p Proc, v Value) []Proc {
	switch t := p.(type) {
	case Nil, Speak, Tau:
		return []Proc{p}
	case Hear:
		return []Proc{Subst(t.Cont, t.Param, v)}
	case Sum:
		if Discards(p) {
			return []Proc{p}
		}
		var out []Proc
		if !Discards(t.L) {
			out = append(out, Reacts(t.L, v)...)
		}
		if !Discards(t.R) {
			out = append(out, Reacts(t.R, v)...)
		}
		return out
	case Par:
		var out []Proc
		for _, l := range Reacts(t.L, v) {
			for _, r := range Reacts(t.R, v) {
				out = append(out, Par{l, r})
			}
		}
		return out
	case Match:
		// A discarding conditional stays put *unresolved* (rule 14 keeps the
		// ignored process unchanged); only a hearing one resolves.
		if Discards(p) {
			return []Proc{p}
		}
		if t.V == t.W {
			return Reacts(t.Then, v)
		}
		return Reacts(t.Else, v)
	}
	panic("cbs: unknown node")
}

// Steps returns the autonomous transitions (speaks and τ) of p; a speak by
// one parallel component forces every sibling to hear or discard it.
func Steps(p Proc) []Trans {
	var out []Trans
	switch t := p.(type) {
	case Nil, Hear:
	case Tau:
		out = append(out, Trans{Label{'t', ""}, t.Cont})
	case Speak:
		out = append(out, Trans{Label{'!', t.Val}, t.Cont})
	case Sum:
		out = append(out, Steps(t.L)...)
		out = append(out, Steps(t.R)...)
	case Match:
		if t.V == t.W {
			return Steps(t.Then)
		}
		return Steps(t.Else)
	case Par:
		for _, lt := range Steps(t.L) {
			if lt.Label.Kind == 't' {
				out = append(out, Trans{lt.Label, Par{lt.Target, t.R}})
				continue
			}
			for _, r := range Reacts(t.R, lt.Label.Val) {
				out = append(out, Trans{lt.Label, Par{lt.Target, r}})
			}
		}
		for _, rt := range Steps(t.R) {
			if rt.Label.Kind == 't' {
				out = append(out, Trans{rt.Label, Par{t.L, rt.Target}})
				continue
			}
			for _, l := range Reacts(t.L, rt.Label.Val) {
				out = append(out, Trans{rt.Label, Par{l, rt.Target}})
			}
		}
	default:
		panic("cbs: unknown node")
	}
	return dedupe(out)
}

func dedupe(ts []Trans) []Trans {
	seen := map[string]bool{}
	out := ts[:0]
	for _, t := range ts {
		k := t.Label.String() + " " + Key(t.Target)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ki := out[i].Label.String() + " " + Key(out[i].Target)
		kj := out[j].Label.String() + " " + Key(out[j].Target)
		return ki < kj
	})
	return out
}

// Key returns a canonical string for p (binders alpha-normalised).
func Key(p Proc) string {
	var b strings.Builder
	k := 0
	writeKey(p, &b, names.Subst{}, &k)
	return b.String()
}

func writeKey(p Proc, b *strings.Builder, env names.Subst, k *int) {
	switch t := p.(type) {
	case Nil:
		b.WriteByte('0')
	case Tau:
		b.WriteString("t.")
		writeKey(t.Cont, b, env, k)
	case Speak:
		b.WriteString(string(env.Apply(t.Val)))
		b.WriteString("!.")
		writeKey(t.Cont, b, env, k)
	case Hear:
		*k++
		canon := names.Name(fmt.Sprintf("\x01%d", *k))
		inner := env.Clone()
		inner[t.Param] = canon
		b.WriteString(string(canon))
		b.WriteString("?.")
		writeKey(t.Cont, b, inner, k)
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
	case Match:
		fmt.Fprintf(b, "m(%s=%s)(", env.Apply(t.V), env.Apply(t.W))
		writeKey(t.Then, b, env, k)
		b.WriteByte('|')
		writeKey(t.Else, b, env, k)
		b.WriteByte(')')
	default:
		panic("cbs: unknown node")
	}
}

// ToBpi embeds a CBS process into the bπ-calculus over a single ether
// channel: v! becomes ether!(v), x? becomes ether?(x). The embedding is a
// strong transition-by-transition correspondence (CBS is exactly the
// one-channel, no-restriction fragment of bπ), which E15 and the tests
// check by comparing the generated transition systems.
func ToBpi(p Proc, ether names.Name) syntax.Proc {
	switch t := p.(type) {
	case Nil:
		return syntax.PNil
	case Tau:
		return syntax.TauP(ToBpi(t.Cont, ether))
	case Speak:
		return syntax.Send(ether, []names.Name{t.Val}, ToBpi(t.Cont, ether))
	case Hear:
		return syntax.Recv(ether, []names.Name{t.Param}, ToBpi(t.Cont, ether))
	case Sum:
		return syntax.Sum{L: ToBpi(t.L, ether), R: ToBpi(t.R, ether)}
	case Par:
		return syntax.Par{L: ToBpi(t.L, ether), R: ToBpi(t.R, ether)}
	case Match:
		return syntax.If(t.V, t.W, ToBpi(t.Then, ether), ToBpi(t.Else, ether))
	}
	panic("cbs: unknown node")
}

// String renders a CBS process.
func String(p Proc) string {
	switch t := p.(type) {
	case Nil:
		return "0"
	case Tau:
		return "tau." + String(t.Cont)
	case Speak:
		return string(t.Val) + "!." + String(t.Cont)
	case Hear:
		return string(t.Param) + "?." + String(t.Cont)
	case Sum:
		return "(" + String(t.L) + " + " + String(t.R) + ")"
	case Par:
		return "(" + String(t.L) + " | " + String(t.R) + ")"
	case Match:
		return fmt.Sprintf("[%s=%s](%s, %s)", t.V, t.W, String(t.Then), String(t.Else))
	}
	panic("cbs: unknown node")
}
