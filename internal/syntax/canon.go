package syntax

import (
	"fmt"
	"strings"

	"bpi/internal/names"
)

// Canonical binder names start with this control byte; they are unwritable
// from user input and never produced by FreshVariant, so Canon output is a
// sound representative of the alpha-equivalence class.
const canonMark = "\x01"

// IsCanonName reports whether n is a canonical binder name produced by Canon.
func IsCanonName(n Name) bool { return strings.HasPrefix(string(n), canonMark) }

// Canon returns the canonical representative of p's alpha-equivalence class:
// every binder is renamed, in a fixed traversal order, to a canonical name.
// Two processes are alpha-equivalent iff their Canon results are
// structurally equal (Equal), and Key(p) can be used as a map key for
// alpha-classes.
func Canon(p Proc) Proc {
	k := 0
	return canon(p, nil, &k)
}

func canonName(k *int) Name {
	*k++
	return Name(fmt.Sprintf("%s%d", canonMark, *k))
}

// canon renames binders to canonical names; env maps in-scope binders to
// their canonical replacements.
func canon(p Proc, env names.Subst, k *int) Proc {
	look := func(n Name) Name { return env.Apply(n) }
	switch t := p.(type) {
	case Nil:
		return t
	case Prefix:
		switch pre := t.Pre.(type) {
		case Tau:
			return Prefix{pre, canon(t.Cont, env, k)}
		case Out:
			return Prefix{Out{look(pre.Ch), env.ApplySlice(pre.Args)}, canon(t.Cont, env, k)}
		case In:
			inner := env.Clone()
			ps := make([]Name, len(pre.Params))
			for i, b := range pre.Params {
				ps[i] = canonName(k)
				inner[b] = ps[i]
			}
			return Prefix{In{look(pre.Ch), ps}, canon(t.Cont, inner, k)}
		}
		panic("syntax: unknown prefix")
	case Sum:
		return Sum{canon(t.L, env, k), canon(t.R, env, k)}
	case Par:
		return Par{canon(t.L, env, k), canon(t.R, env, k)}
	case Res:
		inner := env.Clone()
		x := canonName(k)
		inner[t.X] = x
		return Res{x, canon(t.Body, inner, k)}
	case Match:
		return Match{look(t.X), look(t.Y), canon(t.Then, env, k), canon(t.Else, env, k)}
	case Call:
		return Call{t.Id, env.ApplySlice(t.Args)}
	case Rec:
		inner := env.Clone()
		ps := make([]Name, len(t.Params))
		for i, b := range t.Params {
			ps[i] = canonName(k)
			inner[b] = ps[i]
		}
		return Rec{t.Id, ps, canon(t.Body, inner, k), env.ApplySlice(t.Args)}
	default:
		panic("syntax: unknown process node")
	}
}

// Equal reports structural equality of two terms (names compared verbatim;
// use AlphaEqual for equality up to renaming of bound names).
func Equal(p, q Proc) bool {
	switch a := p.(type) {
	case Nil:
		_, ok := q.(Nil)
		return ok
	case Prefix:
		b, ok := q.(Prefix)
		return ok && preEqual(a.Pre, b.Pre) && Equal(a.Cont, b.Cont)
	case Sum:
		b, ok := q.(Sum)
		return ok && Equal(a.L, b.L) && Equal(a.R, b.R)
	case Par:
		b, ok := q.(Par)
		return ok && Equal(a.L, b.L) && Equal(a.R, b.R)
	case Res:
		b, ok := q.(Res)
		return ok && a.X == b.X && Equal(a.Body, b.Body)
	case Match:
		b, ok := q.(Match)
		return ok && a.X == b.X && a.Y == b.Y && Equal(a.Then, b.Then) && Equal(a.Else, b.Else)
	case Call:
		b, ok := q.(Call)
		return ok && a.Id == b.Id && namesEqual(a.Args, b.Args)
	case Rec:
		b, ok := q.(Rec)
		return ok && a.Id == b.Id && namesEqual(a.Params, b.Params) &&
			namesEqual(a.Args, b.Args) && Equal(a.Body, b.Body)
	default:
		panic("syntax: unknown process node")
	}
}

func preEqual(a, b Pre) bool {
	switch x := a.(type) {
	case Tau:
		_, ok := b.(Tau)
		return ok
	case In:
		y, ok := b.(In)
		return ok && x.Ch == y.Ch && namesEqual(x.Params, y.Params)
	case Out:
		y, ok := b.(Out)
		return ok && x.Ch == y.Ch && namesEqual(x.Args, y.Args)
	default:
		panic("syntax: unknown prefix")
	}
}

func namesEqual(a, b []Name) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AlphaEqual reports p =α q.
func AlphaEqual(p, q Proc) bool { return Equal(Canon(p), Canon(q)) }

// Key returns a compact string that identifies p's alpha-equivalence class;
// alpha-equivalent terms (and only those) share a Key. It is suitable as a
// map key for state interning during LTS exploration.
func Key(p Proc) string {
	var b strings.Builder
	writeKey(Canon(p), &b)
	return b.String()
}

// writeKey emits an unambiguous prefix encoding of the term.
func writeKey(p Proc, b *strings.Builder) {
	writeNames := func(ns []Name) {
		for i, n := range ns {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(n))
		}
	}
	switch t := p.(type) {
	case Nil:
		b.WriteByte('0')
	case Prefix:
		switch pre := t.Pre.(type) {
		case Tau:
			b.WriteString("t.")
		case In:
			b.WriteString("i(")
			b.WriteString(string(pre.Ch))
			b.WriteByte(';')
			writeNames(pre.Params)
			b.WriteString(").")
		case Out:
			b.WriteString("o(")
			b.WriteString(string(pre.Ch))
			b.WriteByte(';')
			writeNames(pre.Args)
			b.WriteString(").")
		}
		writeKey(t.Cont, b)
	case Sum:
		b.WriteString("+(")
		writeKey(t.L, b)
		b.WriteByte('|')
		writeKey(t.R, b)
		b.WriteByte(')')
	case Par:
		b.WriteString("&(")
		writeKey(t.L, b)
		b.WriteByte('|')
		writeKey(t.R, b)
		b.WriteByte(')')
	case Res:
		b.WriteString("n(")
		b.WriteString(string(t.X))
		b.WriteByte(')')
		writeKey(t.Body, b)
	case Match:
		b.WriteString("m(")
		b.WriteString(string(t.X))
		b.WriteByte('=')
		b.WriteString(string(t.Y))
		b.WriteByte(')')
		b.WriteByte('(')
		writeKey(t.Then, b)
		b.WriteByte('|')
		writeKey(t.Else, b)
		b.WriteByte(')')
	case Call:
		b.WriteString("c(")
		b.WriteString(t.Id)
		b.WriteByte(';')
		writeNames(t.Args)
		b.WriteByte(')')
	case Rec:
		b.WriteString("r(")
		b.WriteString(t.Id)
		b.WriteByte(';')
		writeNames(t.Params)
		b.WriteByte(';')
		writeNames(t.Args)
		b.WriteByte(')')
		writeKey(t.Body, b)
	default:
		panic("syntax: unknown process node")
	}
}
