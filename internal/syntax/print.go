package syntax

import (
	"fmt"
	"strings"
)

// Precedence levels for printing: sum < par < unary (prefix, restriction,
// match, rec) < atoms.
const (
	precSum = iota
	precPar
	precUnary
	precAtom
)

// String renders p in the library's concrete syntax, which the parser
// accepts back (round-trip):
//
//	0                    nil
//	tau.p                silent prefix
//	a?(x,y).p            input
//	a!(x,y).p            output (a! for the empty tuple)
//	p + q                choice
//	p | q                parallel
//	nu x.p               restriction (body extends to the next + or |)
//	[x=y](p, q)          match; "[x=y]p" abbreviates "[x=y](p, 0)"
//	A(x,y)               identifier call (identifiers start with a capital)
//	(rec A(x).p)(y)      recursion
func String(p Proc) string {
	var b strings.Builder
	writeProc(p, &b, precSum)
	return b.String()
}

func writeProc(p Proc, b *strings.Builder, ctx int) {
	switch t := p.(type) {
	case Nil:
		b.WriteByte('0')
	case Prefix:
		open(b, ctx, precUnary)
		writePre(t.Pre, b)
		if _, isNil := t.Cont.(Nil); !isNil {
			b.WriteByte('.')
			writeProc(t.Cont, b, precUnary)
		}
		clos(b, ctx, precUnary)
	case Sum:
		open(b, ctx, precSum)
		writeProc(t.L, b, precPar) // children need at least par precedence
		b.WriteString(" + ")
		writeSumTail(t.R, b)
		clos(b, ctx, precSum)
	case Par:
		open(b, ctx, precPar)
		writeProc(t.L, b, precUnary)
		b.WriteString(" | ")
		writeParTail(t.R, b)
		clos(b, ctx, precPar)
	case Res:
		open(b, ctx, precUnary)
		b.WriteString("nu ")
		b.WriteString(string(t.X))
		b.WriteByte('.')
		writeProc(t.Body, b, precUnary)
		clos(b, ctx, precUnary)
	case Match:
		open(b, ctx, precUnary)
		fmt.Fprintf(b, "[%s=%s]", t.X, t.Y)
		if _, elseNil := t.Else.(Nil); elseNil {
			writeProc(t.Then, b, precUnary)
		} else {
			b.WriteByte('(')
			writeProc(t.Then, b, precSum)
			b.WriteString(", ")
			writeProc(t.Else, b, precSum)
			b.WriteByte(')')
		}
		clos(b, ctx, precUnary)
	case Call:
		b.WriteString(t.Id)
		b.WriteByte('(')
		writeNameList(t.Args, b)
		b.WriteByte(')')
	case Rec:
		b.WriteString("(rec ")
		b.WriteString(t.Id)
		b.WriteByte('(')
		writeNameList(t.Params, b)
		b.WriteString(").")
		writeProc(t.Body, b, precSum)
		b.WriteString(")(")
		writeNameList(t.Args, b)
		b.WriteByte(')')
	default:
		panic("syntax: unknown process node")
	}
}

// writeSumTail keeps right-nested sums flat: a + b + c.
func writeSumTail(p Proc, b *strings.Builder) {
	if s, ok := p.(Sum); ok {
		writeProc(s.L, b, precPar)
		b.WriteString(" + ")
		writeSumTail(s.R, b)
		return
	}
	writeProc(p, b, precPar)
}

// writeParTail keeps right-nested parallels flat: a | b | c.
func writeParTail(p Proc, b *strings.Builder) {
	if s, ok := p.(Par); ok {
		writeProc(s.L, b, precUnary)
		b.WriteString(" | ")
		writeParTail(s.R, b)
		return
	}
	writeProc(p, b, precUnary)
}

func open(b *strings.Builder, ctx, mine int) {
	if mine < ctx {
		b.WriteByte('(')
	}
}

func clos(b *strings.Builder, ctx, mine int) {
	if mine < ctx {
		b.WriteByte(')')
	}
}

func writePre(pre Pre, b *strings.Builder) {
	switch t := pre.(type) {
	case Tau:
		b.WriteString("tau")
	case In:
		b.WriteString(string(t.Ch))
		b.WriteByte('?')
		b.WriteByte('(')
		writeNameList(t.Params, b)
		b.WriteByte(')')
	case Out:
		b.WriteString(string(t.Ch))
		b.WriteByte('!')
		if len(t.Args) > 0 {
			b.WriteByte('(')
			writeNameList(t.Args, b)
			b.WriteByte(')')
		}
	default:
		panic("syntax: unknown prefix")
	}
}

func writeNameList(ns []Name, b *strings.Builder) {
	for i, n := range ns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(n))
	}
}
