package names

import (
	"sort"
	"strings"
)

// Subst is a finite-support substitution on names: a total function that is
// the identity outside its proper domain. It corresponds to the σ of the
// paper (Section 4: the congruence ~c closes ~+ under all substitutions).
//
// The zero value (nil map) is the identity substitution.
type Subst map[Name]Name

// Single returns the substitution [new/old] (replace old by new).
func Single(old, new Name) Subst {
	if old == new {
		return Subst{}
	}
	return Subst{old: new}
}

// FromSlices builds the simultaneous substitution [news/olds].
// It panics if the slices have different lengths (caller bug: arity
// mismatches must be caught earlier, at Call/Rec construction).
func FromSlices(olds, news []Name) Subst {
	if len(olds) != len(news) {
		panic("names: substitution slices of unequal length")
	}
	s := make(Subst, len(olds))
	for i, o := range olds {
		if o != news[i] {
			s[o] = news[i]
		} else {
			// A later pair may still remap o; simultaneous semantics keeps
			// the first binding for duplicate olds, matching textual order.
			if _, dup := s[o]; !dup {
				s[o] = news[i]
			}
		}
	}
	return s
}

// Apply returns σ(n).
func (s Subst) Apply(n Name) Name {
	if s == nil {
		return n
	}
	if m, ok := s[n]; ok {
		return m
	}
	return n
}

// ApplySlice maps σ over a slice, returning a fresh slice (never aliasing
// the input when a change occurs; returns the input unchanged otherwise).
func (s Subst) ApplySlice(ns []Name) []Name {
	changed := false
	for _, n := range ns {
		if s.Apply(n) != n {
			changed = true
			break
		}
	}
	if !changed {
		return ns
	}
	out := make([]Name, len(ns))
	for i, n := range ns {
		out[i] = s.Apply(n)
	}
	return out
}

// IsIdentity reports whether σ acts as the identity (its proper domain is
// empty after discounting trivial x↦x entries).
func (s Subst) IsIdentity() bool {
	for o, n := range s {
		if o != n {
			return false
		}
	}
	return true
}

// Domain returns the proper domain {x | σ(x) ≠ x} (paper: prdom(σ)).
func (s Subst) Domain() Set {
	d := make(Set)
	for o, n := range s {
		if o != n {
			d = d.Add(o)
		}
	}
	return d
}

// Codomain returns the proper codomain {σ(x) | x ∈ prdom(σ)} (prcod(σ)).
func (s Subst) Codomain() Set {
	c := make(Set)
	for o, n := range s {
		if o != n {
			c = c.Add(n)
		}
	}
	return c
}

// Without returns σ with the given names removed from its domain; used when
// a substitution passes under a binder for those names.
func (s Subst) Without(bound ...Name) Subst {
	if s == nil {
		return nil
	}
	needCopy := false
	for _, b := range bound {
		if _, ok := s[b]; ok {
			needCopy = true
			break
		}
	}
	if !needCopy {
		return s
	}
	out := make(Subst, len(s))
	for o, n := range s {
		out[o] = n
	}
	for _, b := range bound {
		delete(out, b)
	}
	return out
}

// Clone returns an independent copy.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for o, n := range s {
		out[o] = n
	}
	return out
}

// String renders the substitution deterministically as [a↦b, c↦d].
func (s Subst) String() string {
	type pair struct{ o, n Name }
	pairs := make([]pair, 0, len(s))
	for o, n := range s {
		if o != n {
			pairs = append(pairs, pair{o, n})
		}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].o < pairs[j].o })
	b := strings.Builder{}
	b.WriteByte('[')
	for i, p := range pairs {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(p.o))
		b.WriteString("↦")
		b.WriteString(string(p.n))
	}
	b.WriteByte(']')
	return b.String()
}
