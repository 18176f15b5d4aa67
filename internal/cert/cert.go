// Package cert defines checkable certificates for every verdict the
// reproduction can produce, plus an independent verifier.
//
// A certificate is self-contained evidence:
//
//   - A positive certificate for one of the pair relations (labelled, barbed,
//     step bisimilarity) is the finished bisimulation relation: a list of
//     canonical term pairs, nothing more. The verifier re-derives every
//     challenge of the relation's definition and every defender answer from
//     the LTS rules (internal/semantics) and checks the relation is closed:
//     for each challenge, some answer lands back in the relation.
//   - A negative certificate is a distinguishing strategy: a DAG of attacker
//     moves (or barb/discard observations) such that every defender answer —
//     re-derived exhaustively by the verifier, weak closures included — is
//     refuted by a child node. The verifier checks the strategy is
//     inescapable and well-founded (cyclic "refutations" are rejected).
//   - One-step certificates (~+/≈+, Definitions 11/15) carry a labelled
//     relation that must answer the root pair's strict challenges and, when
//     weak, its discard clause, besides being closed itself; congruence
//     certificates (~c/≈c) embed one one-step certificate per fusion of the
//     free names (positive) or a single distinguishing substitution plus a
//     one-step strategy (negative).
//   - An axioms certificate (Section 5) is the proof object of a Decide run:
//     per world (complete condition, Definition 16) the goal DAG of strict
//     summand matchings, (H)-saturations and (SP) input instantiations the
//     prover discharged, replayed step by step by the verifier.
//
// The verifier deliberately shares no code with internal/equiv, internal/
// refine or internal/axioms: it re-derives transitions, closures, discard
// sets, canonical renamings, instantiation universes and world enumerations
// from internal/semantics and internal/syntax alone. Certificates store
// terms as printed canonical strings; the parser round-trips the reserved
// fresh-name marker, so machine-chosen names survive serialisation.
package cert

import (
	"encoding/json"
	"fmt"
)

// Relation names a certificate can carry.
const (
	RelLabelled   = "labelled"   // Definitions 7/8
	RelBarbed     = "barbed"     // Definition 3
	RelStep       = "step"       // Definition 5
	RelOneStep    = "onestep"    // Definitions 11/15
	RelCongruence = "congruence" // Section 4 (~c / ≈c)
	RelAxioms     = "axioms"     // Section 5 (A ⊢ p = q)
)

// Relations lists the five equivalences a pair query can ask
// (equiv.Query.Rel, bpid's "rel"), in the paper's order; RelAxioms is the
// prover's, not a query's.
var Relations = []string{RelLabelled, RelBarbed, RelStep, RelOneStep, RelCongruence}

// Version is the certificate format version this package emits. Verify
// also accepts version 1, whose positive certificates listed a move table
// beside the relation; those keys decode into nothing, and the relation is
// checked as a version-2 one is.
const Version = 2

// Certificate is a self-contained, checkable verdict. Which fields are
// populated depends on Relation and Related; see the package comment.
type Certificate struct {
	Version  int    `json:"version"`
	Relation string `json:"relation"`
	Weak     bool   `json:"weak,omitempty"`
	Related  bool   `json:"related"`
	// P and Q are the compared terms, printed canonically. Congruence
	// certificates name them unsimplified, since the substitutions apply to
	// the terms as given.
	P string `json:"p"`
	Q string `json:"q"`

	// Positive pair-relation evidence: the relation as indices into Terms.
	// A one-step certificate's relation is a labelled bisimulation that
	// holds the answers to its root pair's strict challenges.
	Terms []string `json:"terms,omitempty"`
	Pairs [][2]int `json:"pairs,omitempty"`

	// Negative evidence: the distinguishing strategy as a DAG; Nodes[0] is
	// the root. For one-step (and congruence) certificates the root node is
	// a strict one-step challenge and all descendants are labelled-level.
	Nodes []Strategy `json:"nodes,omitempty"`

	// Congruence evidence: one positive one-step certificate per fusion of
	// the free names (Subs), or the distinguishing substitution (Sigma)
	// whose specialised pair the root strategy node refutes.
	Subs  []*Certificate    `json:"subs,omitempty"`
	Sigma map[string]string `json:"sigma,omitempty"`

	// Axioms evidence (Relation == RelAxioms).
	Proof *Proof `json:"proof,omitempty"`
}

// Strategy is one node of a distinguishing strategy DAG: an attacker
// move or observation on the pair (P, Q), with a refuting child per
// defender answer.
type Strategy struct {
	P string `json:"p"`
	Q string `json:"q"`
	// Kind: "barb" (barb mismatch leaf), "discard" (one-step discard
	// clause), "tau", "out", "react", "step" or "in".
	Kind string `json:"kind"`
	// Side is the attacker (for "barb", the side owning the barb).
	Side string `json:"side"`
	// Label is the barb name (kind "barb") or canonical output action
	// (kind "out").
	Label string `json:"label,omitempty"`
	// Ch and Payload identify the channel of "discard" and the ground
	// broadcast of "react"/"in".
	Ch      string   `json:"ch,omitempty"`
	Payload []string `json:"payload,omitempty"`
	// To is the attacker's derivative (absent for "barb" and strong
	// "discard" leaves; for weak "discard" the attacker stays put).
	To string `json:"to,omitempty"`
	// Replies refutes every defender answer. A challenge with no replies
	// claims the re-derived answer set is empty.
	Replies []Reply `json:"replies,omitempty"`
}

// Reply refutes one defender answer: the answering term and the index (into
// Certificate.Nodes) of the strategy node distinguishing the successor pair.
type Reply struct {
	To   string `json:"to"`
	Next int    `json:"next"`
}

// Proof is the evidence of an axioms (Section 5) verdict: the goal DAG of a
// Decide run. For a positive verdict Worlds lists every complete condition
// on fn(p,q) in enumeration order, each with its proved top-level goal; for
// a negative verdict Worlds holds exactly the failing world with its
// refuted goal.
type Proof struct {
	Worlds []WorldStep `json:"worlds"`
	Goals  []Goal      `json:"goals"`
}

// WorldStep is one world (complete condition) instance: the representative
// substitution and the index of its top-level goal.
type WorldStep struct {
	Rep  map[string]string `json:"rep"`
	Goal int               `json:"goal"`
}

// Goal is one decideWorld comparison in the proof DAG.
type Goal struct {
	P        string `json:"p"`
	Q        string `json:"q"`
	Saturate bool   `json:"saturate,omitempty"`
	Proved   bool   `json:"proved"`

	// Proved goals: the matching steps per summand class (both directions).
	Taus []MatchStep `json:"taus,omitempty"`
	Outs []MatchStep `json:"outs,omitempty"`
	Ins  []InStep    `json:"ins,omitempty"`

	// Refuted goals: which clause failed and, for summand-matching
	// failures, the refutation of every candidate partner.
	// FailKind: "shapes", "discards", "sat-shapes", "tau", "out", "in".
	FailKind    string       `json:"failKind,omitempty"`
	FailSide    string       `json:"failSide,omitempty"`
	FailName    string       `json:"failName,omitempty"`  // channel ("discards", "in")
	FailLabel   string       `json:"failLabel,omitempty"` // output label ("out")
	FailCont    string       `json:"failCont,omitempty"`  // unmatched continuation
	FailPayload []string     `json:"failPayload,omitempty"`
	Refutes     []RefuteStep `json:"refutes,omitempty"`
}

// MatchStep discharges one τ or output summand: the mover's continuation,
// the chosen partner continuation, and the subgoal proving them A-equal.
type MatchStep struct {
	Side    string `json:"side"`
	Label   string `json:"label,omitempty"` // output label; empty for τ
	Cont    string `json:"cont"`
	Partner string `json:"partner"`
	Next    int    `json:"next"`
}

// InStep discharges one input instantiation (the (SP) selector): the ground
// payload, the mover's instantiated continuation, the partner's, and the
// subgoal.
type InStep struct {
	Side    string   `json:"side"`
	Ch      string   `json:"ch"`
	Payload []string `json:"payload"`
	Cont    string   `json:"cont"`
	Partner string   `json:"partner"`
	Next    int      `json:"next"`
}

// RefuteStep refutes one candidate partner of a failed summand match.
type RefuteStep struct {
	Partner string `json:"partner"`
	Next    int    `json:"next"`
}

// Marshal renders the certificate as indented JSON.
func (c *Certificate) Marshal() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// Unmarshal parses a certificate from JSON.
func Unmarshal(data []byte) (*Certificate, error) {
	var c Certificate
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("cert: %w", err)
	}
	return &c, nil
}
