// Package names provides the channel-name infrastructure of the bπ-calculus:
// names themselves, finite name sets and substitutions.
//
// In the calculus of Ene & Muntean every transmissible value is a channel
// name drawn from a countable set Chb. We represent names as strings.
// Machine-generated names, such as syntax.FreshVariant's and Universe's
// reservoir names, carry FreshMarker.
package names

import (
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Name is a channel name of the calculus (an element of Chb).
type Name string

// FreshMarker is the substring that marks machine-generated names. The
// parser accepts it in identifiers, so that printed machine states parse
// back; a name holding it may therefore come from a user, and a generator
// that must not collide with a term's names checks them (FreshVariant
// takes an avoid set).
const FreshMarker = "·"

// Set is a finite set of names. The zero value is the empty set; Set values
// are freely shareable once built, but mutation is not concurrency-safe.
type Set map[Name]struct{}

// NewSet builds a set from the given names.
func NewSet(ns ...Name) Set {
	s := make(Set, len(ns))
	for _, n := range ns {
		s[n] = struct{}{}
	}
	return s
}

// Add inserts n, allocating the set if needed, and returns the set.
func (s Set) Add(n Name) Set {
	if s == nil {
		s = make(Set)
	}
	s[n] = struct{}{}
	return s
}

// AddAll inserts every name of t and returns the (possibly newly allocated) set.
func (s Set) AddAll(t Set) Set {
	for n := range t {
		s = s.Add(n)
	}
	return s
}

// AddSlice inserts every name in ns and returns the set.
func (s Set) AddSlice(ns []Name) Set {
	for _, n := range ns {
		s = s.Add(n)
	}
	return s
}

// Remove deletes n if present.
func (s Set) Remove(n Name) { delete(s, n) }

// Contains reports membership.
func (s Set) Contains(n Name) bool {
	_, ok := s[n]
	return ok
}

// ContainsAny reports whether any name of ns is in the set.
func (s Set) ContainsAny(ns []Name) bool {
	for _, n := range ns {
		if s.Contains(n) {
			return true
		}
	}
	return false
}

// Len returns the cardinality.
func (s Set) Len() int { return len(s) }

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for n := range s {
		c[n] = struct{}{}
	}
	return c
}

// Union returns a new set s ∪ t.
func (s Set) Union(t Set) Set {
	c := s.Clone()
	for n := range t {
		c = c.Add(n)
	}
	return c
}

// Minus returns a new set s \ t.
func (s Set) Minus(t Set) Set {
	c := make(Set)
	for n := range s {
		if !t.Contains(n) {
			c[n] = struct{}{}
		}
	}
	return c
}

// Equal reports set equality.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for n := range s {
		if !t.Contains(n) {
			return false
		}
	}
	return true
}

// Sorted returns the elements in lexicographic order (deterministic views
// for printing, hashing and iteration).
func (s Set) Sorted() []Name {
	out := make([]Name, 0, len(s))
	for n := range s {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the set as {a, b, c} in sorted order.
func (s Set) String() string {
	parts := s.Sorted()
	b := strings.Builder{}
	b.WriteByte('{')
	for i, n := range parts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(n))
	}
	b.WriteByte('}')
	return b.String()
}

// EachTuple calls f on each tuple of u^k in odometer order (position 0
// most significant) and stops at the first error f returns, returning it.
// Each tuple is a fresh slice that f may keep. k = 0 yields the one empty
// tuple (nil); for k > 0 an empty u yields none.
func EachTuple(u []Name, k int, f func([]Name) error) error {
	if k == 0 {
		return f(nil)
	}
	if len(u) == 0 {
		return nil
	}
	idx := make([]int, k)
	for {
		t := make([]Name, k)
		for i, j := range idx {
			t[i] = u[j]
		}
		if err := f(t); err != nil {
			return err
		}
		i := k - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(u) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return nil
		}
	}
}

// Universe returns the names a k-ary input is instantiated over when the
// names in play are fn: fn in sorted order, then the first k reservoir
// names w·1, w·2, … outside fn. k fresh names realise every equality
// pattern among k received names; any other fresh name is an injective
// renaming of these, which bisimilarity preserves (Lemma 18 of the paper).
func Universe(fn Set, k int) []Name {
	size := len(fn) + k
	u := make([]Name, 0, size)
	for n := range fn {
		u = append(u, n)
	}
	slices.Sort(u)
	for i := 1; len(u) < size; i++ {
		if w := Name("w" + FreshMarker + strconv.Itoa(i)); !fn.Contains(w) {
			u = append(u, w)
		}
	}
	return u
}
