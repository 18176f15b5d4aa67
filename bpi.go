package bpi

import (
	"bpi/internal/axioms"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/lts"
	"bpi/internal/machine"
	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Core types, re-exported.
type (
	// Name is a channel name of the calculus.
	Name = names.Name
	// Proc is a process term.
	Proc = syntax.Proc
	// Env is a definitions environment (named process equations).
	Env = syntax.Env
	// System fixes the semantic context (definitions, unfold budgets).
	System = semantics.System
	// Trans is one symbolic transition of the operational semantics.
	Trans = semantics.Trans
	// Checker decides the paper's behavioural equivalences.
	Checker = equiv.Checker
	// Query is one question of Checker.Decide: are P and Q related by Rel?
	Query = equiv.Query
	// Result is an equivalence verdict.
	Result = equiv.Result
	// Prover decides A ⊢ p = q for finite processes (Section 5).
	Prover = axioms.Prover
	// Graph is an explicit finite transition graph.
	Graph = lts.Graph
	// ExploreOptions configures graph exploration.
	ExploreOptions = lts.Options
	// RunOptions configures machine execution.
	RunOptions = machine.Options
	// RunResult reports one machine execution.
	RunResult = machine.Result
	// Program is a parsed source file (definitions plus main term).
	Program = parser.Program
	// Certificate is a replayable proof object for a verdict (set Certify on
	// a Checker or Prover to emit one; Result.Cert carries it). A positive
	// one lists the relation's pairs, whose answers the verifier derives.
	Certificate = cert.Certificate
	// CertVerifier replays certificates against the LTS rules alone, with
	// optional definitions (Sys) and work budgets.
	CertVerifier = cert.Verifier
)

// The relations a Query names (Query.Rel).
const (
	RelLabelled   = cert.RelLabelled   // ~ / ≈, Definitions 7/8
	RelBarbed     = cert.RelBarbed     // ~b / ≈b, Definition 3
	RelStep       = cert.RelStep       // ~φ / ≈φ, Definition 5
	RelOneStep    = cert.RelOneStep    // ~+ / ≈+, Definitions 11/15
	RelCongruence = cert.RelCongruence // ~c / ≈c, Section 4
)

// Term constructors, re-exported from the syntax package.
var (
	// PNil is the inert process 0.
	PNil = syntax.PNil
)

// TauP builds τ.p.
func TauP(p Proc) Proc { return syntax.TauP(p) }

// Send builds the output prefix ch!(args).cont.
func Send(ch Name, args []Name, cont Proc) Proc { return syntax.Send(ch, args, cont) }

// SendN builds the output ch!(args) with inert continuation.
func SendN(ch Name, args ...Name) Proc { return syntax.SendN(ch, args...) }

// Recv builds the input prefix ch?(params).cont.
func Recv(ch Name, params []Name, cont Proc) Proc { return syntax.Recv(ch, params, cont) }

// RecvN builds the input ch?(params) with inert continuation.
func RecvN(ch Name, params ...Name) Proc { return syntax.RecvN(ch, params...) }

// Choice folds processes with + (empty is 0).
func Choice(ps ...Proc) Proc { return syntax.Choice(ps...) }

// Group folds processes with ‖ (empty is 0).
func Group(ps ...Proc) Proc { return syntax.Group(ps...) }

// Restrict wraps p in νx1…νxn.
func Restrict(p Proc, xs ...Name) Proc { return syntax.Restrict(p, xs...) }

// If builds the conditional (x=y)then,else.
func If(x, y Name, then, els Proc) Proc { return syntax.If(x, y, then, els) }

// Call invokes a definition A(args...).
func Call(id string, args ...Name) Proc { return syntax.Call{Id: id, Args: args} }

// Rec builds the recursion (rec id(params).body)(args).
func Rec(id string, params []Name, body Proc, args []Name) Proc {
	return syntax.Rec{Id: id, Params: params, Body: body, Args: args}
}

// Format renders p in the concrete syntax accepted by Parse.
func Format(p Proc) string { return syntax.String(p) }

// FreeNames returns fn(p).
func FreeNames(p Proc) []Name { return syntax.FreeNames(p).Sorted() }

// Equal reports structural equality; AlphaEqual works up to renaming of
// bound names.
func Equal(p, q Proc) bool { return syntax.Equal(p, q) }

// AlphaEqual reports p =α q.
func AlphaEqual(p, q Proc) bool { return syntax.AlphaEqual(p, q) }

// Parse parses one process term in the concrete syntax.
func Parse(src string) (Proc, error) { return parser.Parse(src) }

// MustParse is Parse panicking on error (for tests and examples).
func MustParse(src string) Proc {
	p, err := parser.Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

// ParseProgram parses a source file of "let" definitions plus an optional
// main term.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// NewSystem returns a semantic system over env (nil means no definitions).
func NewSystem(env Env) *System { return semantics.NewSystem(env) }

// NewChecker returns an equivalence checker over sys (nil means the empty
// environment). A checker is safe to share across goroutines: concurrent
// queries reuse each other's memoised derivations.
func NewChecker(sys *System) *Checker { return equiv.NewChecker(sys) }

// NewProver returns the Section 5 decision procedure over sys.
func NewProver(sys *System) *Prover { return axioms.NewProver(sys) }

// VerifyCertificate replays c with a default verifier — independent of the
// engines, deriving everything from the LTS rules. A nil error means the
// certified verdict is established.
func VerifyCertificate(c *Certificate) error { return cert.Verify(c) }

// UnmarshalCertificate parses a certificate from its JSON encoding (the
// format written by Certificate.Marshal, the -cert CLI flags and the
// daemon's /v1/equiv with "cert": true).
func UnmarshalCertificate(data []byte) (*Certificate, error) { return cert.Unmarshal(data) }

// Explore builds the finite transition graph reachable from the roots.
func Explore(sys *System, roots []Proc, opt ExploreOptions) (*Graph, error) {
	return lts.Explore(sys, roots, opt)
}

// Run executes p by its autonomous broadcast transitions under a scheduler.
func Run(sys *System, p Proc, opt RunOptions) (RunResult, error) {
	return machine.Run(sys, p, opt)
}

// RunMany executes n independent randomly-scheduled runs on a worker pool.
func RunMany(sys *System, p Proc, n int, seed int64, opt RunOptions, workers int) ([]RunResult, error) {
	return machine.RunMany(sys, p, n, seed, opt, workers)
}

// CanReachBarb reports whether some autonomous execution reaches a state
// broadcasting on watch.
func CanReachBarb(sys *System, p Proc, watch Name, maxStates int) (bool, error) {
	return machine.CanReachBarb(sys, p, watch, maxStates)
}

// AlwaysReachesBarb reports whether every maximal autonomous execution
// eventually broadcasts on watch (with a counterexample state otherwise).
func AlwaysReachesBarb(sys *System, p Proc, watch Name, maxStates int) (bool, Proc, error) {
	return machine.AlwaysReachesBarb(sys, p, watch, maxStates)
}
