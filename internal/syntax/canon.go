package syntax

import (
	"strconv"
	"strings"
)

// canonMark starts every binder name a Key writes; user input cannot
// contain it and FreshVariant never produces it, so a key's binders never
// collide with its free names.
const canonMark = '\x01'

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
func AlphaEqual(p, q Proc) bool { return Key(p) == Key(q) }

// Key returns a compact string that identifies p's alpha-equivalence class;
// alpha-equivalent terms (and only those) share a Key. It is suitable as a
// map key for state interning during LTS exploration.
//
// The key is an unambiguous prefix encoding of p in which every binder is
// written as canonMark followed by its index in traversal order, and every
// bound occurrence as the name written for its binder, so renaming bound
// names cannot change it.
func Key(p Proc) string {
	var w keyWriter
	w.proc(p)
	return w.b.String()
}

// keyWriter writes a Key in one walk of the term.
type keyWriter struct {
	b     strings.Builder
	scope []binder // the binders in scope, innermost last
	n     int      // binders written so far
}

type binder struct {
	name Name
	idx  int
}

func (w *keyWriter) proc(p Proc) {
	b := &w.b
	outer := len(w.scope)
	switch t := p.(type) {
	case Nil:
		b.WriteByte('0')
	case Prefix:
		switch pre := t.Pre.(type) {
		case Tau:
			b.WriteString("t.")
		case In:
			b.WriteString("i(")
			w.name(pre.Ch, w.scope)
			b.WriteByte(';')
			w.bind(pre.Params)
			b.WriteString(").")
		case Out:
			b.WriteString("o(")
			w.name(pre.Ch, w.scope)
			b.WriteByte(';')
			w.names(pre.Args, w.scope)
			b.WriteString(").")
		default:
			panic("syntax: unknown prefix")
		}
		w.proc(t.Cont)
	case Sum:
		b.WriteString("+(")
		w.proc(t.L)
		b.WriteByte('|')
		w.proc(t.R)
		b.WriteByte(')')
	case Par:
		b.WriteString("&(")
		w.proc(t.L)
		b.WriteByte('|')
		w.proc(t.R)
		b.WriteByte(')')
	case Res:
		b.WriteString("n(")
		w.bind([]Name{t.X})
		b.WriteByte(')')
		w.proc(t.Body)
	case Match:
		b.WriteString("m(")
		w.name(t.X, w.scope)
		b.WriteByte('=')
		w.name(t.Y, w.scope)
		b.WriteString(")(")
		w.proc(t.Then)
		b.WriteByte('|')
		w.proc(t.Else)
		b.WriteByte(')')
	case Call:
		b.WriteString("c(")
		b.WriteString(t.Id)
		b.WriteByte(';')
		w.names(t.Args, w.scope)
		b.WriteByte(')')
	case Rec:
		b.WriteString("r(")
		b.WriteString(t.Id)
		b.WriteByte(';')
		w.bind(t.Params)
		b.WriteByte(';')
		// The arguments instantiate the parameters from outside their scope.
		w.names(t.Args, w.scope[:outer])
		b.WriteByte(')')
		w.proc(t.Body)
	default:
		panic("syntax: unknown process node")
	}
	w.scope = w.scope[:outer]
}

// name writes n as it occurs under scope: as its innermost binder when
// bound, verbatim when free.
func (w *keyWriter) name(n Name, scope []binder) {
	for i := len(scope) - 1; i >= 0; i-- {
		if scope[i].name == n {
			w.binderName(scope[i].idx)
			return
		}
	}
	w.b.WriteString(string(n))
}

func (w *keyWriter) names(ns []Name, scope []binder) {
	for i, n := range ns {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.name(n, scope)
	}
}

// bind writes ns as new binders and brings them into scope.
func (w *keyWriter) bind(ns []Name) {
	for i, n := range ns {
		if i > 0 {
			w.b.WriteByte(',')
		}
		w.n++
		w.scope = append(w.scope, binder{n, w.n})
		w.binderName(w.n)
	}
}

func (w *keyWriter) binderName(idx int) {
	var buf [20]byte
	w.b.WriteByte(canonMark)
	w.b.Write(strconv.AppendInt(buf[:0], int64(idx), 10))
}
