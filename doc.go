// Package bpi is a complete Go implementation of the bπ-calculus of Ene and
// Muntean, "A Broadcast-based Calculus for Communicating Systems"
// (IPPS/FMPPTA 2001): a process calculus for reconfigurable communicating
// systems whose only communication primitive is broadcast.
//
// The package is a façade over the implementation packages:
//
//   - terms are built with the constructors re-exported here (Send, Recv,
//     TauP, Choice, Group, Restrict, If, rec/call) or parsed from the
//     concrete syntax with Parse/ParseProgram;
//   - the operational semantics of Table 2 (the discard relation) and
//     Table 3 (the early labelled transition system with broadcast
//     composition) is exposed through System.Steps and System.Discards;
//   - the behavioural equivalences of the paper — strong and weak barbed
//     (Definition 3), step (Definition 5) and labelled (Definitions 7/8)
//     bisimilarity, the one-step relations ~+/≈+ (Definitions 11/15), and
//     the congruences ~c/≈c (Section 4) — are decided by Checker.Decide,
//     one Query at a time;
//   - the axiomatisation of Section 5 (axiom system A, head normal forms,
//     the expansion law and a complete decision procedure for A ⊢ p = q on
//     finite terms) lives in Prover;
//   - systems are executed with Run/RunMany/CanReachBarb (broadcast
//     scheduling, Monte-Carlo pools, reachability and inevitability);
//   - the paper's worked examples (distributed cycle detection, transaction
//     inconsistency detection, PVM-style dynamic group communication) are
//     available as prebuilt environments;
//   - a resident checking daemon (cmd/bpid) serves the equivalences and the
//     prover over HTTP/JSON, deciding each request on a term store of its
//     own, with a verdict cache; talk to it with Client (NewClient) or
//     embed its core with NewService.
//
// # Quickstart
//
//	p := bpi.MustParse("a!(b) | a?(x).x! | a?(y).y!")
//	sys := bpi.NewSystem(nil)
//	ts, _ := sys.Steps(p) // one broadcast transition feeding both receivers
//
//	ch := bpi.NewChecker(nil)
//	res, _ := ch.Decide(context.Background(), bpi.Query{
//		Rel: bpi.RelLabelled, P: bpi.MustParse("a?"), Q: bpi.MustParse("b?")})
//	// res.Related == true: the noisy law of broadcast bisimilarity.
//
// See README.md for the architecture and EXPERIMENTS.md for the
// paper-reproduction experiment suite.
package bpi
