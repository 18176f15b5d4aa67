// Package maytest implements the may-testing preorder for the bπ-calculus —
// the paper's announced follow-up work ("In a forthcoming paper we analyse
// the preorders induced by may testing in calculi based on broadcast", §6).
//
// An observer is a process with a distinguished success channel ω; p may o
// when some autonomous execution of p ‖ o broadcasts on ω. The may preorder
// p ⊑may q holds when every observer satisfied by p is satisfied by q.
// Universal quantification over observers is not decidable by sampling, so
// the package offers the exact per-observer check (May) plus a falsification
// search over observer families (Distinguish); the paper's motivating pair
// ā.(b̄+c̄) vs ā.b̄+ā.c̄ — distinguishable by bisimulation but by no broadcast
// observer — is exercised in the tests and the experiment suite.
package maytest

import (
	"fmt"

	"bpi/internal/machine"
	"bpi/internal/names"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// DefaultSuccess is the conventional success channel.
const DefaultSuccess names.Name = "succω"

// May reports whether p ‖ o can broadcast on omega (the may-testing
// satisfaction relation), by exhaustive bounded exploration.
func May(sys *semantics.System, p, o syntax.Proc, omega names.Name, maxStates int) (bool, error) {
	return machine.CanReachBarb(sys, syntax.Par{L: p, R: o}, omega, maxStates)
}

// Verdict reports the outcome of a sampled preorder comparison.
type Verdict struct {
	// Distinguisher satisfied by p but not by q (nil when none found).
	Distinguisher syntax.Proc
	// Tried is the number of observers checked.
	Tried int
}

// Distinguish searches the given observers for one satisfied by p but not by
// q (a witness against p ⊑may q). A nil Distinguisher means no sampled
// observer separates them — evidence for (not proof of) the preorder.
func Distinguish(sys *semantics.System, p, q syntax.Proc, observers []syntax.Proc,
	omega names.Name, maxStates int) (Verdict, error) {
	v := Verdict{}
	for _, o := range observers {
		v.Tried++
		mp, err := May(sys, p, o, omega, maxStates)
		if err != nil {
			return v, fmt.Errorf("maytest: observer %s on p: %w", syntax.String(o), err)
		}
		if !mp {
			continue
		}
		mq, err := May(sys, q, o, omega, maxStates)
		if err != nil {
			return v, fmt.Errorf("maytest: observer %s on q: %w", syntax.String(o), err)
		}
		if !mq {
			v.Distinguisher = o
			return v, nil
		}
	}
	return v, nil
}

// TraceObservers enumerates the canonical observer family for may-testing in
// a broadcast setting: input-sequence observers ending in success,
//
//	a1().a2().….ak().ω̄
//
// for every sequence over chans of length ≤ depth. In broadcast calculi an
// observer cannot block or acknowledge a sender, so (monadic, payload-blind)
// may-testing power is exactly trace observation — these observers decide
// the sampled preorder for payload-free processes.
func TraceObservers(chans []names.Name, depth int, omega names.Name) []syntax.Proc {
	var out []syntax.Proc
	var build func(prefix []names.Name)
	build = func(prefix []names.Name) {
		o := syntax.SendN(omega)
		for i := len(prefix) - 1; i >= 0; i-- {
			o = syntax.Recv(prefix[i], nil, o)
		}
		out = append(out, o)
		if len(prefix) == depth {
			return
		}
		for _, c := range chans {
			np := append(append([]names.Name{}, prefix...), c)
			build(np)
		}
	}
	build(nil)
	return out
}
