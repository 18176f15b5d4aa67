package syntax

import (
	"fmt"
	"sort"

	"bpi/internal/names"
)

// Def is a (mutually recursive) process definition A(x̃) ≝ p. Definitions
// play the role of the paper's process identifiers with globally known
// bodies (as in the Detector / Item examples); they are equivalent in
// expressive power to rec but far more readable for systems of equations.
type Def struct {
	Params []Name
	Body   Proc
}

// Env maps identifiers to their definitions. The zero value (nil) is the
// empty environment. Envs are treated as immutable once built.
type Env map[string]Def

// Define adds (or replaces) a definition, allocating the map if needed, and
// returns the environment.
func (e Env) Define(id string, params []Name, body Proc) Env {
	if e == nil {
		e = make(Env)
	}
	e[id] = Def{params, body}
	return e
}

// Lookup resolves an identifier.
func (e Env) Lookup(id string) (Def, bool) {
	d, ok := e[id]
	return d, ok
}

// Expand resolves a Call against the environment, instantiating the
// definition body: A⟨ỹ⟩ ↦ body[ỹ/x̃]. It returns an error for unknown
// identifiers or arity mismatches.
func (e Env) Expand(c Call) (Proc, error) {
	d, ok := e[c.Id]
	if !ok {
		return nil, fmt.Errorf("syntax: undefined process identifier %q", c.Id)
	}
	if len(d.Params) != len(c.Args) {
		return nil, fmt.Errorf("syntax: %s expects %d arguments, got %d", c.Id, len(d.Params), len(c.Args))
	}
	return Instantiate(d.Body, d.Params, c.Args), nil
}

// Idents returns the defined identifiers in sorted order.
func (e Env) Idents() []string {
	out := make([]string, 0, len(e))
	for id := range e {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Validate checks the whole environment: every definition body must only
// call identifiers defined in e (or bound by an inner rec), arities must
// match, every recursive occurrence must be guarded (the paper's standing
// assumption), and definition bodies must not have free names outside their
// parameters (so that Expand yields closed behaviour).
func (e Env) Validate() error {
	return e.ValidateWith(nil)
}

// ValidateWith is Validate allowing the given names as global constants
// free in definition bodies (e.g. tag names compared with matches).
func (e Env) ValidateWith(globals names.Set) error {
	for id, d := range e {
		if fn := FreeNames(d.Body).Minus(names.NewSet(d.Params...)).Minus(globals); fn.Len() > 0 {
			return fmt.Errorf("syntax: definition %s has free names %v outside its parameters", id, fn)
		}
		if err := e.CheckCalls(id, d.Body); err != nil {
			return err
		}
	}
	// Guardedness: a definition may refer to others at unguarded positions
	// (plain composition), but no *cycle* of unguarded references may exist
	// — that is what makes one-step unfolding diverge.
	if cyc := e.unguardedCycle(); cyc != "" {
		return fmt.Errorf("syntax: unguarded recursion through %s", cyc)
	}
	return nil
}

// unguardedCycle returns the identifier of some definition on an unguarded
// reference cycle, or "" when none exists.
func (e Env) unguardedCycle() string {
	// refs[id] = identifiers called at unguarded positions in id's body.
	refs := map[string][]string{}
	for id, d := range e {
		set := map[string]bool{}
		unguardedCalls(d.Body, set)
		for callee := range set {
			if _, ok := e[callee]; ok {
				refs[id] = append(refs[id], callee)
			}
		}
		sort.Strings(refs[id])
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(id string) bool
	visit = func(id string) bool {
		switch color[id] {
		case grey:
			return true
		case black:
			return false
		}
		color[id] = grey
		for _, callee := range refs[id] {
			if visit(callee) {
				return true
			}
		}
		color[id] = black
		return false
	}
	for _, id := range e.Idents() {
		if visit(id) {
			return id
		}
	}
	return ""
}

// unguardedCalls collects identifiers that occur at unguarded positions
// (not underneath any prefix) in p. Rec binders shadow their identifier.
func unguardedCalls(p Proc, out map[string]bool) {
	switch t := p.(type) {
	case Nil, Prefix:
		// Anything under a prefix is guarded.
	case Sum:
		unguardedCalls(t.L, out)
		unguardedCalls(t.R, out)
	case Par:
		unguardedCalls(t.L, out)
		unguardedCalls(t.R, out)
	case Res:
		unguardedCalls(t.Body, out)
	case Match:
		unguardedCalls(t.Then, out)
		unguardedCalls(t.Else, out)
	case Call:
		out[t.Id] = true
	case Rec:
		// For environment cycles only free identifiers matter; the rec's
		// own identifier is bound here.
		inner := map[string]bool{}
		unguardedCalls(t.Body, inner)
		for id := range inner {
			if id != t.Id {
				out[id] = true
			}
		}
	}
}

// CheckCalls verifies that every Call in body resolves (environment or
// enclosing rec) with the right arity. owner names body in the error.
func (e Env) CheckCalls(owner string, body Proc) error {
	return e.checkCalls(owner, body, nil)
}

// checkCalls is CheckCalls on p, with recs the arities of the rec
// identifiers in scope.
func (e Env) checkCalls(owner string, p Proc, recs map[string]int) error {
	switch t := p.(type) {
	case Nil:
		return nil
	case Prefix:
		return e.checkCalls(owner, t.Cont, recs)
	case Sum:
		if err := e.checkCalls(owner, t.L, recs); err != nil {
			return err
		}
		return e.checkCalls(owner, t.R, recs)
	case Par:
		if err := e.checkCalls(owner, t.L, recs); err != nil {
			return err
		}
		return e.checkCalls(owner, t.R, recs)
	case Res:
		return e.checkCalls(owner, t.Body, recs)
	case Match:
		if err := e.checkCalls(owner, t.Then, recs); err != nil {
			return err
		}
		return e.checkCalls(owner, t.Else, recs)
	case Call:
		if n, ok := recs[t.Id]; ok {
			if n != len(t.Args) {
				return fmt.Errorf("syntax: in %s, rec call %s expects %d args, got %d", owner, t.Id, n, len(t.Args))
			}
			return nil
		}
		d, ok := e[t.Id]
		if !ok {
			return fmt.Errorf("syntax: in %s, call to undefined identifier %s", owner, t.Id)
		}
		if len(d.Params) != len(t.Args) {
			return fmt.Errorf("syntax: in %s, call %s expects %d args, got %d", owner, t.Id, len(d.Params), len(t.Args))
		}
		return nil
	case Rec:
		if len(t.Params) != len(t.Args) {
			return fmt.Errorf("syntax: in %s, rec %s has %d params but %d args", owner, t.Id, len(t.Params), len(t.Args))
		}
		inner := make(map[string]int, len(recs)+1)
		for k, v := range recs {
			inner[k] = v
		}
		inner[t.Id] = len(t.Params)
		return e.checkCalls(owner, t.Body, inner)
	default:
		panic("syntax: unknown process node")
	}
}

// Size returns the number of AST nodes of p (a standard term-size metric
// for generators and benchmarks).
func Size(p Proc) int {
	switch t := p.(type) {
	case Nil, Call:
		return 1
	case Prefix:
		return 1 + Size(t.Cont)
	case Sum:
		return 1 + Size(t.L) + Size(t.R)
	case Par:
		return 1 + Size(t.L) + Size(t.R)
	case Res:
		return 1 + Size(t.Body)
	case Match:
		return 1 + Size(t.Then) + Size(t.Else)
	case Rec:
		return 1 + Size(t.Body)
	default:
		panic("syntax: unknown process node")
	}
}

// IsFinite reports whether p is a finite process (no recursion and no
// identifier calls) — the fragment covered by the axiomatisation of §5.
func IsFinite(p Proc) bool {
	switch t := p.(type) {
	case Nil:
		return true
	case Prefix:
		return IsFinite(t.Cont)
	case Sum:
		return IsFinite(t.L) && IsFinite(t.R)
	case Par:
		return IsFinite(t.L) && IsFinite(t.R)
	case Res:
		return IsFinite(t.Body)
	case Match:
		return IsFinite(t.Then) && IsFinite(t.Else)
	case Call, Rec:
		return false
	default:
		panic("syntax: unknown process node")
	}
}
