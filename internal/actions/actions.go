// Package actions defines the action grammar of the bπ-calculus LTS
// (Definition 1 of the paper):
//
//	α ::= a(x̃) | νỹ āx̃ | τ | a:
//
// a reception, a (possibly bound) output, the silent action, and the discard
// pseudo-action a: ("p ignores a broadcast on a"). Discards never label
// stored transitions — they are the complement of listening — but they do
// participate in the input-or-discard matching clause a(b̃)? of the labelled
// bisimulations (Definitions 7/8), so they are representable here.
package actions

import "bpi/internal/names"

// Kind classifies an action.
type Kind int

const (
	// Tau is the silent action τ.
	Tau Kind = iota
	// In is a reception a(x̃). In symbolic transitions the objects are the
	// input's binding parameters; in ground (instantiated) transitions they
	// are the received names.
	In
	// Out is an output νỹ āx̃; Bound lists the extruded (bound) subset ỹ of
	// the objects, empty for a free output.
	Out
	// Discard is the pseudo-action a: (the process ignores channel a).
	Discard
)

// Act is an LTS label.
type Act struct {
	Kind Kind
	// Subj is the subject channel (unset for τ).
	Subj names.Name
	// Objs is the object tuple x̃ (received or emitted names; unset for τ
	// and discard).
	Objs []names.Name
	// Bound is the extruded subset ỹ ⊆ Objs for outputs, in first-occurrence
	// order. Invariant: every Bound name occurs in Objs.
	Bound []names.Name
}

// NewTau returns τ.
func NewTau() Act { return Act{Kind: Tau} }

// NewIn returns the reception a(x̃).
func NewIn(subj names.Name, objs []names.Name) Act {
	return Act{Kind: In, Subj: subj, Objs: objs}
}

// NewOut returns the free output āx̃.
func NewOut(subj names.Name, objs []names.Name) Act {
	return Act{Kind: Out, Subj: subj, Objs: objs}
}

// IsTau reports α = τ.
func (a Act) IsTau() bool { return a.Kind == Tau }

// IsOutput reports that α is a (possibly bound) output.
func (a Act) IsOutput() bool { return a.Kind == Out }

// IsInput reports that α is a reception.
func (a Act) IsInput() bool { return a.Kind == In }

// IsStep reports whether α is an autonomous step — an output or τ. These
// are the moves a system can make without cooperation from its environment
// (the "real reductions" that step-bisimilarity observes).
func (a Act) IsStep() bool { return a.Kind == Tau || a.Kind == Out }

// BoundSet returns the extruded names as a set.
func (a Act) BoundSet() names.Set { return names.NewSet(a.Bound...) }

// FreeNames returns fn(α) per Definition 1: fn(τ)=∅, fn(a(x̃))={a}∪x̃,
// fn(νỹ āx̃)={a}∪x̃\ỹ, fn(a:)={a}.
func (a Act) FreeNames() names.Set {
	switch a.Kind {
	case Tau:
		return names.NewSet()
	case In:
		return names.NewSet(a.Objs...).Add(a.Subj)
	case Out:
		s := names.NewSet(a.Objs...).Add(a.Subj)
		for _, b := range a.Bound {
			s.Remove(b)
		}
		return s
	case Discard:
		return names.NewSet(a.Subj)
	}
	panic("actions: unknown kind")
}

// BoundNames returns bn(α): the extruded names of a bound output, ∅
// otherwise. (Input objects are not bound in the early semantics.)
func (a Act) BoundNames() names.Set {
	if a.Kind == Out {
		return names.NewSet(a.Bound...)
	}
	return names.NewSet()
}

// Names returns n(α) = fn(α) ∪ bn(α).
func (a Act) Names() names.Set { return a.FreeNames().AddAll(a.BoundNames()) }

// RenameAll applies a substitution to every name of the label including the
// bound ones (used for joint alpha-conversion of label and target).
func (a Act) RenameAll(s names.Subst) Act {
	out := Act{Kind: a.Kind, Subj: s.Apply(a.Subj), Objs: s.ApplySlice(a.Objs), Bound: s.ApplySlice(a.Bound)}
	if a.Kind == Tau {
		out.Subj = ""
	}
	return out
}

// String renders the label: "tau", "a?(x,y)", "a!(x,y)", "(^x)a!(x)",
// "a:" for a discard.
func (a Act) String() string {
	if a.Kind == Tau {
		return "tau"
	}
	var buf [64]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the label as String renders it to b and returns the
// extended buffer.
func (a Act) AppendTo(b []byte) []byte {
	switch a.Kind {
	case Tau:
		return append(b, "tau"...)
	case Discard:
		return append(append(b, a.Subj...), ':')
	case In:
		b = append(append(b, a.Subj...), '?')
	case Out:
		if len(a.Bound) > 0 {
			b = appendNames(append(b, "(^"...), a.Bound)
			b = append(b, ')')
		}
		b = append(append(b, a.Subj...), '!')
	}
	if a.Kind == In || len(a.Objs) > 0 {
		b = appendNames(append(b, '('), a.Objs)
		b = append(b, ')')
	}
	return b
}

func appendNames(b []byte, ns []names.Name) []byte {
	for i, n := range ns {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
	}
	return b
}
