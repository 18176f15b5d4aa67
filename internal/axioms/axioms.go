package axioms

import (
	"bpi/internal/names"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// sharedSys is the empty-environment system the package's tests compute
// head normal forms with.
var sharedSys = semantics.NewSystem(nil)

// Axiom is one law of the system A (Tables 6 and 7) presented as an
// instance generator: given raw material (subterms and names), it produces
// a (lhs, rhs) pair that the law equates, or ok=false when the side
// conditions are not met. The E8 experiment validates every axiom's
// instances against the semantic congruence checker (Theorem 6, soundness).
type Axiom struct {
	Name string
	// Table is "A" (Table 6), "R" (Table 7) or "E" (Table 8).
	Table string
	// Inst builds an instance from the material.
	Inst func(m Material) (lhs, rhs syntax.Proc, ok bool)
}

// Material is the raw input for axiom instantiation.
type Material struct {
	P, Q, R syntax.Proc
	A, B, C names.Name
	X       names.Name // a name fresh for P (binder material)
}

// Catalogue returns the axiom system A: the laws of Table 6 (choice,
// conditions, the noisy axiom (H), and (SP)), the restriction laws of
// Table 7, and the parallel laws (P1 plus the expansion axiom, exposed
// separately via Expand).
func Catalogue() []Axiom {
	return []Axiom{
		{"S1: p+nil = p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Choice(m.P, syntax.PNil), m.P, true
		}},
		{"S2: p+p = p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Choice(m.P, m.P), m.P, true
		}},
		{"S3: p+q = q+p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Choice(m.P, m.Q), syntax.Choice(m.Q, m.P), true
		}},
		{"S4: (p+q)+r = p+(q+r)", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Choice(syntax.Choice(m.P, m.Q), m.R), syntax.Choice(m.P, syntax.Choice(m.Q, m.R)), true
		}},
		{"C3: φ⇔ψ ⇒ φp = ψp", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			phi := Conj(Eq{m.A, m.B}, Eq{m.B, m.A})
			psi := Eq{m.A, m.B}
			return CondProc(phi, m.P), CondProc(psi, m.P), true
		}},
		{"C4: False p = False q", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return CondProc(False(), m.P), CondProc(False(), m.Q), true
		}},
		{"C5: φp,p = p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.If(m.A, m.B, m.P, m.P), m.P, true
		}},
		{"C6: φp,q = ¬φ q,p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.If(m.A, m.B, m.P, m.Q), CondProc2(Neq(m.A, m.B), m.Q, m.P), true
		}},
		{"SC1: φ(p1+p2),(q1+q2) = φp1,q1 + φp2,q2", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.If(m.A, m.B, syntax.Choice(m.P, m.Q), syntax.Choice(m.Q, m.R)),
				syntax.Choice(syntax.If(m.A, m.B, m.P, m.Q), syntax.If(m.A, m.B, m.Q, m.R)), true
		}},
		{"CP1: bn(α)∩n(φ)=∅ ⇒ φ(α.p) = φ(α.φp)", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			alphaP := syntax.Send(m.C, nil, m.P)
			alphaPhiP := syntax.Send(m.C, nil, CondProc(Eq{m.A, m.B}, m.P))
			return CondProc(Eq{m.A, m.B}, alphaP), CondProc(Eq{m.A, m.B}, alphaPhiP), true
		}},
		{"CP2: (x=y)α.p = (x=y)(α{x/y}).p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			lhs := syntax.If(m.A, m.B, syntax.Send(m.B, []names.Name{m.C}, m.P), syntax.PNil)
			rhs := syntax.If(m.A, m.B, syntax.Send(m.A, []names.Name{m.C}, m.P), syntax.PNil)
			return lhs, rhs, true
		}},
		{"H: noisy saturation", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			// ā.p = ā.(p + a(x).p), requiring x ∉ fn(p) and p ⊣ a (p
			// discards a). The paper states (H) inside the conditional
			// system, where the ambient condition fixes which names are
			// distinct; the side condition p ⊣ a is only stable under the
			// fusions that keep a apart from every channel p could listen
			// on in SOME world (match conditions flip branches under
			// fusion, so this is headIns over both branches, not In(p)).
			// A bare instance is therefore sound for ~ but NOT for ~c: to
			// stay ~c-sound we emit the paper's conditional form, guarding
			// both sides with [a≠n] for each such channel n — fusions that
			// merge a with one of them collapse both sides to nil. Found
			// by the differential oracle (axioms/instances law).
			if syntax.FreeNames(m.P).Contains(m.X) {
				return nil, nil, false
			}
			heads, known := headIns(m.P)
			if !known || heads.Contains(m.A) {
				return nil, nil, false
			}
			lhs := syntax.Send(m.A, nil, m.P)
			rhs := syntax.Send(m.A, nil, syntax.Choice(m.P, syntax.Recv(m.A, []names.Name{m.X}, m.P)))
			for _, n := range heads.Sorted() {
				lhs = syntax.If(m.A, n, syntax.PNil, lhs)
				rhs = syntax.If(m.A, n, syntax.PNil, rhs)
			}
			return lhs, rhs, true
		}},
		{"SP: input selector", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			// a(x).p + a(x).q = a(x).p + a(x).q + a(x).((x=b)p,q).
			ax := m.X
			inP := syntax.Recv(m.A, []names.Name{ax}, m.P)
			inQ := syntax.Recv(m.A, []names.Name{ax}, m.Q)
			sel := syntax.Recv(m.A, []names.Name{ax}, syntax.If(ax, m.B, m.P, m.Q))
			return syntax.Choice(inP, inQ), syntax.Choice(inP, syntax.Choice(inQ, sel)), true
		}},
		{"P1: p‖nil = p", "A", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Group(m.P, syntax.PNil), m.P, true
		}},
		{"R1: νxνyp = νyνxp", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Restrict(m.P, m.A, m.B), syntax.Restrict(m.P, m.B, m.A), m.A != m.B
		}},
		{"R2: νx(p+q) = νxp+νxq", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Restrict(syntax.Choice(m.P, m.Q), m.A),
				syntax.Choice(syntax.Restrict(m.P, m.A), syntax.Restrict(m.Q, m.A)), true
		}},
		{"R3: x∉n(α) ⇒ νx α.p = α.νx p", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			if m.A == m.B || m.A == m.C {
				return nil, nil, false
			}
			return syntax.Restrict(syntax.Send(m.B, []names.Name{m.C}, m.P), m.A),
				syntax.Send(m.B, []names.Name{m.C}, syntax.Restrict(m.P, m.A)), true
		}},
		{"RP2: νx x̄y.p = τ.νx p", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Restrict(syntax.Send(m.A, []names.Name{m.B}, m.P), m.A),
				syntax.TauP(syntax.Restrict(m.P, m.A)), true
		}},
		{"RP3: νx x(y).p = nil", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			return syntax.Restrict(syntax.Recv(m.A, []names.Name{m.X}, m.P), m.A), syntax.PNil, true
		}},
		{"RM1: x≠y ⇒ νx(x=y)p = nil", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			if m.A == m.B {
				return nil, nil, false
			}
			// Soundness needs x restricted and p's behaviour guarded by x=y.
			return syntax.Restrict(syntax.If(m.A, m.B, m.P, syntax.PNil), m.A), syntax.PNil,
				!syntax.FreeNames(m.P).Contains(m.A)
		}},
		{"RM2: x∉{y,z} ⇒ νx(y=z)p = (y=z)νxp", "R", func(m Material) (syntax.Proc, syntax.Proc, bool) {
			if m.A == m.B || m.A == m.C {
				return nil, nil, false
			}
			return syntax.Restrict(syntax.If(m.B, m.C, m.P, syntax.PNil), m.A),
				syntax.If(m.B, m.C, syntax.Restrict(m.P, m.A), syntax.PNil), true
		}},
	}
}

// headIns over-approximates, across ALL worlds, the set of free channels p
// can listen on in head position: it walks the same structure as the
// discard relation (Table 2) but takes BOTH branches of every match (a
// fusion may flip the condition) and counts input prefixes whether or not
// a same-channel sibling blocks the joint reception (stuck mixed-arity
// parallels still fail to discard). known is false when p contains
// recursion or process calls, whose unfoldings we refuse to chase here.
//
// Soundness of the approximation: for every fusion σ of free names,
// pσ discards a whenever a ∉ σ(headIns(p)) — which is exactly the guard
// the conditional (H) instance needs.
func headIns(p syntax.Proc) (names.Set, bool) {
	switch t := p.(type) {
	case syntax.Nil:
		return nil, true
	case syntax.Prefix:
		if in, ok := t.Pre.(syntax.In); ok {
			return names.NewSet(in.Ch), true
		}
		return nil, true
	case syntax.Res:
		inner, known := headIns(t.Body)
		if !known {
			return nil, false
		}
		if inner.Contains(t.X) {
			inner = inner.Clone()
			inner.Remove(t.X)
		}
		return inner, true
	case syntax.Sum:
		return headIns2(t.L, t.R)
	case syntax.Par:
		return headIns2(t.L, t.R)
	case syntax.Match:
		return headIns2(t.Then, t.Else)
	default:
		return nil, false // Rec / Call: refuse rather than unfold
	}
}

func headIns2(l, r syntax.Proc) (names.Set, bool) {
	ls, ok := headIns(l)
	if !ok {
		return nil, false
	}
	rs, ok := headIns(r)
	if !ok {
		return nil, false
	}
	return ls.Union(rs), true
}
