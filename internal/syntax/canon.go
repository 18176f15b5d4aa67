package syntax

import (
	"strconv"
	"sync"
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
	w := getKeyWriter()
	w.key(p)
	k := string(w.b) // copied out: w.b goes back to the pool
	putKeyWriter(w)
	return k
}

// AppendKey appends Key(p) to dst and returns the extended buffer. It
// allocates only when dst must grow, so a caller that keeps its buffer can
// key a term, look the bytes up and build a string only for a new term.
func AppendKey(dst []byte, p Proc) []byte {
	w := getKeyWriter()
	own := w.b
	w.b = dst
	w.key(p)
	dst, w.b = w.b, own
	putKeyWriter(w)
	return dst
}

// keyWriter writes Keys in one walk of the term each, into a buffer that
// several keys may share.
type keyWriter struct {
	b     []byte
	scope []binder // the binders in scope, innermost last
	n     int      // binders written so far
}

type binder struct {
	name Name
	idx  int
}

// keyWriters holds idle keyWriters, so that keying a term allocates
// nothing but the result its caller keeps. A writer that grew past
// maxPooledKey bytes or maxPooledBinders binders is dropped instead, so
// that one huge term does not pin its buffers for the life of the process.
var keyWriters = sync.Pool{New: func() any { return new(keyWriter) }}

const (
	maxPooledKey     = 64 << 10
	maxPooledBinders = 1 << 10
)

func getKeyWriter() *keyWriter { return keyWriters.Get().(*keyWriter) }

// putKeyWriter returns w to the pool with an empty buffer; nothing may
// refer to w.b's bytes afterwards.
func putKeyWriter(w *keyWriter) {
	if cap(w.b) > maxPooledKey || cap(w.scope) > maxPooledBinders {
		return
	}
	w.b = w.b[:0]
	keyWriters.Put(w)
}

// key appends Key(p) to w.b, numbering p's binders from 1.
func (w *keyWriter) key(p Proc) {
	w.n = 0
	w.scope = w.scope[:0]
	w.proc(p)
}

func (w *keyWriter) proc(p Proc) {
	outer := len(w.scope)
	switch t := p.(type) {
	case Nil:
		w.b = append(w.b, '0')
	case Prefix:
		switch pre := t.Pre.(type) {
		case Tau:
			w.b = append(w.b, "t."...)
		case In:
			w.b = append(w.b, "i("...)
			w.name(pre.Ch, w.scope)
			w.b = append(w.b, ';')
			w.bind(pre.Params)
			w.b = append(w.b, ")."...)
		case Out:
			w.b = append(w.b, "o("...)
			w.name(pre.Ch, w.scope)
			w.b = append(w.b, ';')
			w.names(pre.Args, w.scope)
			w.b = append(w.b, ")."...)
		default:
			panic("syntax: unknown prefix")
		}
		w.proc(t.Cont)
	case Sum:
		w.b = append(w.b, "+("...)
		w.proc(t.L)
		w.b = append(w.b, '|')
		w.proc(t.R)
		w.b = append(w.b, ')')
	case Par:
		w.b = append(w.b, "&("...)
		w.proc(t.L)
		w.b = append(w.b, '|')
		w.proc(t.R)
		w.b = append(w.b, ')')
	case Res:
		w.b = append(w.b, "n("...)
		w.bindOne(t.X)
		w.b = append(w.b, ')')
		w.proc(t.Body)
	case Match:
		w.b = append(w.b, "m("...)
		w.name(t.X, w.scope)
		w.b = append(w.b, '=')
		w.name(t.Y, w.scope)
		w.b = append(w.b, ")("...)
		w.proc(t.Then)
		w.b = append(w.b, '|')
		w.proc(t.Else)
		w.b = append(w.b, ')')
	case Call:
		w.b = append(w.b, "c("...)
		w.b = append(w.b, t.Id...)
		w.b = append(w.b, ';')
		w.names(t.Args, w.scope)
		w.b = append(w.b, ')')
	case Rec:
		w.b = append(w.b, "r("...)
		w.b = append(w.b, t.Id...)
		w.b = append(w.b, ';')
		w.bind(t.Params)
		w.b = append(w.b, ';')
		// The arguments instantiate the parameters from outside their scope.
		w.names(t.Args, w.scope[:outer])
		w.b = append(w.b, ')')
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
	w.b = append(w.b, n...)
}

func (w *keyWriter) names(ns []Name, scope []binder) {
	for i, n := range ns {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.name(n, scope)
	}
}

// bind writes ns as new binders and brings them into scope.
func (w *keyWriter) bind(ns []Name) {
	for i, n := range ns {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.bindOne(n)
	}
}

func (w *keyWriter) bindOne(n Name) {
	w.n++
	w.scope = append(w.scope, binder{n, w.n})
	w.binderName(w.n)
}

func (w *keyWriter) binderName(idx int) {
	w.b = append(w.b, canonMark)
	w.b = strconv.AppendInt(w.b, int64(idx), 10)
}
