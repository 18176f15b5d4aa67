package axioms

import (
	"fmt"
	"sort"
	"strings"

	"bpi/internal/actions"
	"bpi/internal/names"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Summand is one head-normal-form summand φα.p (Definition 17): a prefix
// guarded by a complete condition. Bound outputs ā(νb) — produced when a
// restriction is pushed onto an output payload (§5.2) — carry the binder in
// Binder with Bound set; inputs carry their parameter in Binder.
type Summand struct {
	// Kind of the head prefix.
	Kind actions.Kind
	// Ch is the subject channel (empty for τ).
	Ch names.Name
	// Objs is the full payload tuple of an output, in transmission order
	// (bound names included; Binder lists which are bound).
	Objs []names.Name
	// Binder is the input parameter or the extruded bound-output name;
	// Bound tells which.
	Binder []names.Name
	// Bound marks a bound output ā(νb̃).
	Bound bool
	// Cont is the continuation.
	Cont syntax.Proc
}

// String renders the summand's prefix.
func (s Summand) String() string {
	switch s.Kind {
	case actions.Tau:
		return "tau." + syntax.String(s.Cont)
	case actions.In:
		return fmt.Sprintf("%s?(%s).%s", s.Ch, joinN(s.Binder), syntax.String(s.Cont))
	default:
		if s.Bound {
			return fmt.Sprintf("%s!(nu %s;%s).%s", s.Ch, joinN(s.Binder), joinN(s.Objs), syntax.String(s.Cont))
		}
		return fmt.Sprintf("%s!(%s).%s", s.Ch, joinN(s.Objs), syntax.String(s.Cont))
	}
}

func joinN(ns []names.Name) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = string(n)
	}
	return strings.Join(parts, ",")
}

// HNF is a head normal form on V: for every world (complete condition on V)
// the list of summands enabled in that world. The paper's
// Σᵢ φᵢαᵢ.pᵢ presentation is recovered by guarding each world's summands
// with the world's condition (ToProc).
type HNF struct {
	V      []names.Name
	Worlds []World
	// ByWorld[i] lists the summands enabled under Worlds[i].
	ByWorld [][]Summand
}

// ComputeHNF builds the head normal form of a finite process on
// V ⊇ fn(p). Per Lemma 16 this is A-provably equal to p; operationally each
// world's summand list is exactly the symbolic transition set of pσ_R,
// because the transition rules perform the same expansion (Table 8),
// restriction pushing (Table 7) and condition resolution (C-axioms) that
// the normalisation proof uses.
func ComputeHNF(sys *semantics.System, p syntax.Proc, v names.Set) (*HNF, error) {
	if !syntax.IsFinite(p) {
		return nil, fmt.Errorf("axioms: hnf requires a finite process, got %s", syntax.String(p))
	}
	u := v.Clone().AddAll(syntax.FreeNames(p))
	ws := Worlds(u)
	h := &HNF{V: u.Sorted(), Worlds: ws, ByWorld: make([][]Summand, len(ws))}
	for i, w := range ws {
		pw := syntax.Apply(p, w.Rep)
		ts, err := sys.Steps(pw)
		if err != nil {
			return nil, err
		}
		for _, t := range ts {
			h.ByWorld[i] = append(h.ByWorld[i], transToSummand(t))
		}
		sort.SliceStable(h.ByWorld[i], func(a, b int) bool {
			return h.ByWorld[i][a].String() < h.ByWorld[i][b].String()
		})
	}
	return h, nil
}

func transToSummand(t semantics.Trans) Summand {
	switch t.Act.Kind {
	case actions.Tau:
		return Summand{Kind: actions.Tau, Cont: t.Target}
	case actions.In:
		return Summand{Kind: actions.In, Ch: t.Act.Subj, Binder: t.Act.Objs, Cont: t.Target}
	default:
		if len(t.Act.Bound) > 0 {
			return Summand{Kind: actions.Out, Ch: t.Act.Subj, Objs: t.Act.Objs,
				Binder: t.Act.Bound, Bound: true, Cont: t.Target}
		}
		return Summand{Kind: actions.Out, Ch: t.Act.Subj, Objs: t.Act.Objs, Cont: t.Target}
	}
}

// ToProc rebuilds a core-syntax process from the head normal form:
// Σ_worlds Σ_summands φ_world α.p. Bound outputs are re-expressed with an
// explicit restriction ν b (āb̃.p), which is A-equal by Table 7.
func (h *HNF) ToProc() syntax.Proc {
	var parts []syntax.Proc
	for i, w := range h.Worlds {
		cond := w.Cond()
		for _, s := range h.ByWorld[i] {
			parts = append(parts, CondProc(cond, summandProc(s)))
		}
	}
	return syntax.Choice(parts...)
}

func summandProc(s Summand) syntax.Proc {
	switch s.Kind {
	case actions.Tau:
		return syntax.TauP(s.Cont)
	case actions.In:
		return syntax.Recv(s.Ch, s.Binder, s.Cont)
	default:
		out := syntax.Send(s.Ch, s.Objs, s.Cont)
		if s.Bound {
			return syntax.Restrict(out, s.Binder...)
		}
		return out
	}
}
