// Package syntax defines the abstract syntax of the bπ-calculus (Table 1 of
// Ene & Muntean, "A Broadcast-based Calculus for Communicating Systems"),
// together with binding structure (free/bound names), alpha-conversion,
// capture-avoiding substitution, canonical forms, printing and metrics.
//
// The process grammar is
//
//	p ::= nil | π.p | νx p | (x=y)p,q | p+q | p‖q | A⟨x̃⟩ | (rec A(x̃).p)⟨ỹ⟩
//
// with prefixes π ::= x(ỹ) | x̄ỹ | τ.
package syntax

import "bpi/internal/names"

// Name aliases the calculus name type for brevity within this package tree.
type Name = names.Name

// Proc is a bπ-calculus process term. Terms are immutable: all operations
// return new terms and never mutate shared structure, so Procs are safe to
// share across goroutines.
type Proc interface {
	isProc()
}

// Pre is a prefix π: an input x(ỹ), an output x̄ỹ, or the silent prefix τ.
type Pre interface {
	isPre()
}

// Tau is the silent prefix τ.
type Tau struct{}

// In is the input prefix x(ỹ): receive the names ỹ on channel Ch. The
// parameters are binders for the continuation.
type In struct {
	Ch     Name
	Params []Name
}

// Out is the output prefix x̄ỹ: broadcast the names Args on channel Ch.
type Out struct {
	Ch   Name
	Args []Name
}

func (Tau) isPre() {}
func (In) isPre()  {}
func (Out) isPre() {}

// Nil is the inert process.
type Nil struct{}

// Prefix is π.p.
type Prefix struct {
	Pre  Pre
	Cont Proc
}

// Sum is the binary choice p+q.
type Sum struct {
	L, R Proc
}

// Par is the parallel composition p‖q. Communication between the branches is
// by unbuffered broadcast (rules 12–14 of Table 3).
type Par struct {
	L, R Proc
}

// Res is the restriction νx p: creation of a new local channel x whose
// initial scope is p.
type Res struct {
	X    Name
	Body Proc
}

// Match is the conditional (x=y)p,q: behaves as Then when X and Y are the
// same name, as Else otherwise.
type Match struct {
	X, Y Name
	Then Proc
	Else Proc
}

// Call is a process identifier application A⟨x̃⟩. The identifier is resolved
// either by an enclosing Rec binder with the same Id, or by a definitions
// environment (Env) supplied to the semantics.
type Call struct {
	Id   string
	Args []Name
}

// Rec is the recursive process (rec A(x̃).p)⟨ỹ⟩: within Body, Call nodes
// naming Id refer back to this recursion. Params are binders for Body; Args
// instantiate them. The paper requires every recursive occurrence to be
// guarded (underneath a prefix); see CheckGuarded.
type Rec struct {
	Id     string
	Params []Name
	Body   Proc
	Args   []Name
}

func (Nil) isProc()    {}
func (Prefix) isProc() {}
func (Sum) isProc()    {}
func (Par) isProc()    {}
func (Res) isProc()    {}
func (Match) isProc()  {}
func (Call) isProc()   {}
func (Rec) isProc()    {}

// ---- Convenience constructors ------------------------------------------

// PNil is the shared inert process.
var PNil = Nil{}

// TauP builds τ.p.
func TauP(p Proc) Proc { return Prefix{Tau{}, p} }

// Recv builds x(ỹ).p.
func Recv(ch Name, params []Name, p Proc) Proc { return Prefix{In{ch, params}, p} }

// Send builds x̄ỹ.p.
func Send(ch Name, args []Name, p Proc) Proc { return Prefix{Out{ch, args}, p} }

// SendN builds the output x̄ỹ (with nil continuation, the paper's "omit the
// trail nil" convention).
func SendN(ch Name, args ...Name) Proc { return Prefix{Out{ch, args}, PNil} }

// RecvN builds x(ỹ).nil.
func RecvN(ch Name, params ...Name) Proc { return Prefix{In{ch, params}, PNil} }

// Choice folds a list of processes with +; Choice() is nil.
func Choice(ps ...Proc) Proc {
	switch len(ps) {
	case 0:
		return PNil
	case 1:
		return ps[0]
	}
	out := ps[len(ps)-1]
	for i := len(ps) - 2; i >= 0; i-- {
		out = Sum{ps[i], out}
	}
	return out
}

// Group folds a list of processes with ‖; Group() is nil.
func Group(ps ...Proc) Proc {
	switch len(ps) {
	case 0:
		return PNil
	case 1:
		return ps[0]
	}
	out := ps[len(ps)-1]
	for i := len(ps) - 2; i >= 0; i-- {
		out = Par{ps[i], out}
	}
	return out
}

// Restrict wraps p in νx1 … νxn.
func Restrict(p Proc, xs ...Name) Proc {
	for i := len(xs) - 1; i >= 0; i-- {
		p = Res{xs[i], p}
	}
	return p
}

// If builds (x=y)p,q.
func If(x, y Name, then, els Proc) Proc { return Match{x, y, then, els} }

// SumList flattens nested Sum nodes into a slice (left-to-right order).
func SumList(p Proc) []Proc { return appendSum(nil, p) }

// ParList flattens nested Par nodes into a slice (left-to-right order).
func ParList(p Proc) []Proc { return appendPar(nil, p) }

// appendSum appends the summands of p to dst, left to right. Every level
// appends into the one slice, so flattening is linear in the number of
// summands however the sum nests.
func appendSum(dst []Proc, p Proc) []Proc {
	if s, ok := p.(Sum); ok {
		return appendSum(appendSum(dst, s.L), s.R)
	}
	return append(dst, p)
}

// appendPar appends the components of p to dst, left to right, as appendSum
// does for summands.
func appendPar(dst []Proc, p Proc) []Proc {
	if s, ok := p.(Par); ok {
		return appendPar(appendPar(dst, s.L), s.R)
	}
	return append(dst, p)
}
