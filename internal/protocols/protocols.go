// Package protocols is the broadcast-algorithm scenario library: executable
// conformance specs for real broadcast protocols, expressed as equivalence
// checks between an implementation term and a specification term.
//
// The paper's thesis is that bπ makes broadcast algorithms directly
// expressible; this package makes that claim testable. Each Scenario pairs a
// parameterised protocol implementation (n nodes over a topology, built from
// the same families as internal/stress) with a behavioural specification,
// names the equivalence that conformance means, and states the expected
// verdict. Correct protocols are equivalent to their spec; fault-injected
// variants (crashed node, deaf node, lossy link) must be DISTINGUISHED from
// it, with the negative verdict's certificate (internal/cert) carrying the
// distinguishing strategy as a replayable witness.
//
// The five algorithm families:
//
//   - Gossip dissemination (epidemic broadcast): a seed rumour spreads hop
//     by hop over a line, star or tree topology; each station that hears the
//     rumour re-broadcasts it on its own channel. The spec is the one-shot
//     causal cascade: the same broadcasts, prefix-nested along the topology's
//     causal order instead of implemented by parallel listeners. Conformance
//     is STRONG step equivalence — the paper's broadcast semantics makes the
//     listener implementation and the nested spec generate the same LTS.
//   - Single-hop leader election (examples/leaderelect, internal/papers):
//     n candidates race to claim leadership on a shared channel; atomic
//     broadcast resolves the race in one step. The spec enumerates the n
//     outcomes as a sum. Strong step equivalence.
//   - Broadcast-via-multicast emulation (after Jeltsch & Díaz-style
//     broadcast/multicast translations): one logical broadcast to n members
//     implemented as a sequence of point-to-point hand-offs on private
//     (restricted) channels. The spec performs one internal broadcast on a
//     private channel. Conformance is WEAK step equivalence: the emulation
//     needs n internal steps where the spec needs one, and weak equivalence
//     is exactly the statement that the difference is unobservable.
//   - BBC-style broadcast + aggregation (after Hüttel & Pratas' Broadcast
//     Based Collection): a collector floods a query in one hop, the sensor
//     readings are aggregated along a convergecast chain, and the collector
//     announces completion. Strong step equivalence against the two-phase
//     sequential spec.
//   - Token ring (testdata/token_ring.bpi, promoted to a scenario): one lap
//     of a value-passing token around a ring of forwarding stations. The
//     spec broadcasts the token payload along the ring order sequentially —
//     conformance exercises name-passing, not just synchronisation.
//
// Fault injection is a term-to-term rewrite on one station of the
// implementation (the spec is never touched):
//
//   - Crashed: the station's component is removed outright.
//   - Deaf: every input the station offers is re-pointed at a fresh, never-
//     broadcast channel — the station is alive (it still occupies a parallel
//     slot and has discard behaviour) but never hears the protocol again.
//   - Lossy: every input continuation k of the station becomes (k + τ.0) —
//     the station receives the message and then nondeterministically drops
//     it. This models an unreliable last hop behind a received broadcast.
//
// Whether a fault is observable depends on the equivalence — a fact the
// library records honestly rather than papering over. In multi-hop
// topologies every fault stalls the downstream cascade and is caught by
// STRONG step equivalence. In single-hop algorithms (election, star gossip),
// where nothing downstream depends on the dropped message, a lossy drop is
// invisible to BOTH step equivalences: strongly the drop-τ counts as the
// very step the lost output would have been (label-blind matching lets the
// spec answer a drop by actually delivering), and weakly the answer may be
// any autonomous sequence, so a recoverable deficit never shows (pinned by
// TestLossyStepInvisibility). The relation that observes the drop is WEAK
// BARBED bisimilarity under a noisy wrapper: both sides are closed under
// ν(trigger), turning the initial broadcast into a τ that barbed bisim must
// traverse; the drop-τ must then be answered by τ* alone and lands in a
// state whose weak barbs are missing the lost observable. Catalogue entries
// therefore pair each fault with the weakest relation in the suite that
// flips on it.
package protocols

import (
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// FaultKind enumerates the failure patterns.
type FaultKind string

const (
	FaultNone    FaultKind = ""
	FaultCrashed FaultKind = "crashed"
	FaultDeaf    FaultKind = "deaf"
	FaultLossy   FaultKind = "lossy"
)

// Fault is one injected failure: Kind applied to the Node-th receiving
// station (1-based; the seed/sender/collector is never the target, so every
// fault hits a node that must relay or acknowledge).
type Fault struct {
	Kind FaultKind
	Node int
}

func (f Fault) String() string {
	if f.Kind == FaultNone {
		return "healthy"
	}
	return fmt.Sprintf("%s-%d", f.Kind, f.Node)
}

// Scenario is one conformance check: the implementation must (or, fault
// injected, must not) be equivalent to the spec in the named relation.
type Scenario struct {
	// Name is the unique scenario id, e.g. "gossip/line-4" or
	// "election-3/deaf-2".
	Name string
	// Algo is the algorithm family: gossip, election, multicast, bbc,
	// tokenring.
	Algo string
	// Impl is the protocol implementation (fault already injected, if any).
	Impl syntax.Proc
	// Spec is the behavioural specification; faults never touch it.
	Spec syntax.Proc
	// Rel and Weak name the conformance equivalence, one of the paper's
	// autonomous relations: cert.RelStep (step bisimilarity, Definition 5),
	// the discriminating relation for the catalogue, which observes every
	// autonomous move; or cert.RelBarbed (barbed bisimilarity, Definition
	// 3: matched τ moves plus barb preservation), coarser than step on
	// these protocols. Inputs are implementation details of a protocol, so
	// labelled bisimilarity, which observes input capabilities, is
	// deliberately not a conformance relation here.
	Rel  string
	Weak bool
	// WantEquiv is the expected verdict: true for healthy instances, false
	// for fault-injected ones (the catalogue only includes fault/relation
	// combinations where the fault is genuinely observable).
	WantEquiv bool
	// Fault records the injected failure (zero value: healthy).
	Fault Fault
	// States is the exact state count of Impl's autonomous LTS, closed-form
	// per generator and pinned against lts.Explore by the package tests.
	// 0 means "not advertised" (some fault variants).
	States int
}

func ch(prefix string, i int) names.Name {
	return names.Name(fmt.Sprintf("%s%d", prefix, i))
}

// ---- Gossip dissemination ------------------------------------------------

// GossipLine returns the n-relay epidemic line: a seed broadcasts g0 and
// station i relays g(i-1) to gi. The implementation is exactly
// stress.Chain("g", n); the spec is the causal cascade g0!.g1!.….gn!. Its
// autonomous LTS is a line of n+2 states.
func GossipLine(n int, f Fault) Scenario {
	impl := stress.Chain("g", n)
	spec := syntax.Proc(syntax.PNil)
	for i := n; i >= 0; i-- {
		spec = syntax.Send(ch("g", i), nil, spec)
	}
	return scenario("gossip", fmt.Sprintf("gossip/line-%d", n), impl, spec,
		cert.RelStep, false, f, n+2)
}

// GossipStar returns the single-hop epidemic star: the seed broadcasts g0,
// all n stations hear it directly and each re-broadcasts its own channel.
// The spec fires the seed and then offers the n re-broadcasts in parallel.
// States: 1 + 2^n (the seed state plus every subset of fired stations).
func GossipStar(n int, f Fault) Scenario {
	parts := []syntax.Proc{syntax.SendN(ch("g", 0))}
	specParts := make([]syntax.Proc, n)
	for i := 1; i <= n; i++ {
		parts = append(parts, syntax.Recv(ch("g", 0), nil, syntax.SendN(ch("g", i))))
		specParts[i-1] = syntax.SendN(ch("g", i))
	}
	impl := syntax.Group(parts...)
	spec := syntax.Proc(syntax.Send(ch("g", 0), nil, syntax.Group(specParts...)))
	rel, weak := lossyRel(cert.RelStep, false, f)
	if f.Kind == FaultLossy {
		impl, spec = syntax.Restrict(impl, ch("g", 0)), syntax.Restrict(spec, ch("g", 0))
	}
	return scenario("gossip", fmt.Sprintf("gossip/star-%d", n), impl, spec,
		rel, weak, f, 1+pow2(n))
}

// GossipTree returns the epidemic broadcast tree of stress.Tree(fanout,
// depth): each station wakes on its parent's channel and re-broadcasts on
// its own. The spec nests the same broadcasts along the causal order:
// spec(v) = tv!.(spec(c1) ‖ … ‖ spec(ck)). States: the order ideals of the
// node poset, J(v) = 1 + Π J(child).
func GossipTree(fanout, depth int, f Fault) Scenario {
	impl := stress.Tree(fanout, depth)
	spec, states := treeSpec(fanout, depth)
	return scenario("gossip", fmt.Sprintf("gossip/tree-%dx%d", fanout, depth),
		impl, spec, cert.RelStep, false, f, states)
}

// treeSpec builds the nested causal spec for stress.Tree's breadth-first
// numbering and returns it with the order-ideal state count.
func treeSpec(fanout, depth int) (syntax.Proc, int) {
	// children[v] lists v's children in stress.Tree's numbering.
	children := map[int][]int{}
	level := []int{0}
	next := 1
	for d := 1; d <= depth; d++ {
		var nl []int
		for _, p := range level {
			for c := 0; c < fanout; c++ {
				children[p] = append(children[p], next)
				nl = append(nl, next)
				next++
			}
		}
		level = nl
	}
	var build func(v int) (syntax.Proc, int)
	build = func(v int) (syntax.Proc, int) {
		kids := children[v]
		parts := make([]syntax.Proc, len(kids))
		ideals := 1
		for i, c := range kids {
			var ci int
			parts[i], ci = build(c)
			ideals *= ci
		}
		return syntax.Send(ch("t", v), nil, syntax.Group(parts...)), 1 + ideals
	}
	spec, states := build(0)
	return spec, states
}

// ---- Single-hop leader election ------------------------------------------

// Election returns the n-candidate broadcast election (the system
// examples/leaderelect runs) as a closed finite term: candidate i is
//
//	claim!(candI).lead!(candI) + claim?(w).follow!(candI, w)
//
// and the spec enumerates the n atomic outcomes:
//
//	Σ_i claim!(candI).( lead!(candI) ‖ Π_{j≠i} follow!(candJ, candI) )
//
// The broadcast is what makes the spec this small: the winning claim reaches
// every loser in the same transition, so there is no partial-knowledge
// state. States: n·(2^n − 1) + 2 (the initial state, n branches each
// interleaving n parallel outputs, and the shared terminal state).
func Election(n int, f Fault) Scenario {
	const claim, lead, follow, w = names.Name("claim"), names.Name("lead"), names.Name("follow"), names.Name("w")
	impl := make([]syntax.Proc, n)
	spec := make([]syntax.Proc, n)
	for i := 0; i < n; i++ {
		id := ch("cand", i)
		impl[i] = syntax.Choice(
			syntax.Send(claim, []names.Name{id}, syntax.SendN(lead, id)),
			syntax.Recv(claim, []names.Name{w}, syntax.SendN(follow, id, w)),
		)
		outcome := []syntax.Proc{syntax.SendN(lead, id)}
		for j := 0; j < n; j++ {
			if j != i {
				outcome = append(outcome, syntax.SendN(follow, ch("cand", j), id))
			}
		}
		spec[i] = syntax.Send(claim, []names.Name{id}, syntax.Group(outcome...))
	}
	rel, weak := lossyRel(cert.RelStep, false, f)
	implP, specP := syntax.Group(impl...), syntax.Proc(syntax.Choice(spec...))
	if f.Kind == FaultLossy {
		// The drop is only barb-visible when no other follower masks the
		// follow channel, so the catalogue states the lossy election at n=2.
		implP, specP = syntax.Restrict(implP, claim), syntax.Restrict(specP, claim)
	}
	return scenario("election", fmt.Sprintf("election-%d", n),
		implP, specP, rel, weak, f, n*(pow2(n)-1)+2)
}

// ---- Broadcast-via-multicast emulation -----------------------------------

// Multicast returns the broadcast-via-multicast emulation: a sender hands
// the message to each of n members over a private per-member channel in
// sequence (multicast as iterated unicast), and each member announces
// delivery on its public dI channel. The spec is the one-shot broadcast: one
// private channel, one internal broadcast, every member delivered at once.
//
//	impl = ν m1…mn ( m1!.m2!.….mn! ‖ Π_i mi?.dI! )
//	spec = ν b ( b! ‖ Π_i b?.dI! )
//
// Conformance is WEAK step equivalence — the emulation takes n internal
// steps where the spec takes one, and weak equivalence states exactly that
// no observer can tell. Strongly the two are inequivalent (the τ counts
// differ), which the package tests pin. States: 2^(n+1) − 1 (sender
// position k with any subset of the first k members still undelivered).
func Multicast(n int, f Fault) Scenario {
	hand := syntax.Proc(syntax.PNil)
	for i := n; i >= 1; i-- {
		hand = syntax.Send(ch("m", i), nil, hand)
	}
	implParts := []syntax.Proc{hand}
	specParts := []syntax.Proc{syntax.SendN("b")}
	var priv []names.Name
	for i := 1; i <= n; i++ {
		implParts = append(implParts, syntax.Recv(ch("m", i), nil, syntax.SendN(ch("d", i))))
		specParts = append(specParts, syntax.Recv("b", nil, syntax.SendN(ch("d", i))))
		priv = append(priv, ch("m", i))
	}
	impl := syntax.Restrict(syntax.Group(implParts...), priv...)
	spec := syntax.Restrict(syntax.Group(specParts...), "b")
	rel, _ := lossyRel(cert.RelStep, true, f)
	return scenario("multicast", fmt.Sprintf("multicast-%d", n), impl, spec,
		rel, true, f, pow2(n+1)-1)
}

// ---- BBC-style broadcast + aggregation -----------------------------------

// BBC returns the broadcast-and-collect protocol: a collector floods a query
// in a single broadcast hop (every sensor hears it atomically), the readings
// aggregate along a convergecast chain a1 → … → an, and the collector
// announces done. Sensor 1 reports immediately; sensor i waits for the
// running aggregate a(i-1); the collector waits for the full aggregate.
//
//	impl = query! ‖ query?.a1! ‖ Π_{i≥2} query?.a(i-1)?.aI! ‖ an?.done!
//	spec = query!.a1!.….an!.done!
//
// Strong step equivalence: after the query broadcast wakes every sensor at
// once, the aggregation chain admits exactly one schedule. States: n+3.
func BBC(n int, f Fault) Scenario {
	parts := []syntax.Proc{syntax.SendN("query")}
	spec := syntax.Proc(syntax.SendN("done"))
	for i := n; i >= 1; i-- {
		spec = syntax.Send(ch("a", i), nil, spec)
	}
	spec = syntax.Send("query", nil, spec)
	for i := 1; i <= n; i++ {
		body := syntax.Proc(syntax.SendN(ch("a", i)))
		if i > 1 {
			body = syntax.Recv(ch("a", i-1), nil, body)
		}
		parts = append(parts, syntax.Recv("query", nil, body))
	}
	parts = append(parts, syntax.Recv(ch("a", n), nil, syntax.SendN("done")))
	return scenario("bbc", fmt.Sprintf("bbc-%d", n), syntax.Group(parts...),
		spec, cert.RelStep, false, f, n+3)
}

// ---- Token ring -----------------------------------------------------------

// TokenRing returns one lap of the value-passing token ring of
// testdata/token_ring.bpi, finitely unrolled: the injector broadcasts the
// token on c0 and station i forwards the received payload from c(i-1) to
// cI. The spec relays the same payload along the ring order sequentially.
// Name-passing is the point: stations forward the name they RECEIVED, so a
// spec with the wrong payload is distinguished. States: n+2.
func TokenRing(n int, f Fault) Scenario {
	const tok = names.Name("tok")
	parts := []syntax.Proc{syntax.SendN(ch("c", 0), tok)}
	spec := syntax.Proc(syntax.PNil)
	for i := n; i >= 1; i-- {
		spec = syntax.Send(ch("c", i), []names.Name{tok}, spec)
	}
	spec = syntax.Send(ch("c", 0), []names.Name{tok}, spec)
	t := names.Name("t")
	for i := 1; i <= n; i++ {
		parts = append(parts, syntax.Recv(ch("c", i-1), []names.Name{t},
			syntax.SendN(ch("c", i), t)))
	}
	return scenario("tokenring", fmt.Sprintf("tokenring-%d", n),
		syntax.Group(parts...), spec, cert.RelStep, false, f, n+2)
}

// ---- Fault injection ------------------------------------------------------

// scenario assembles a Scenario, applying the fault to impl. Fault-free
// scenarios advertise the closed-form state count; fault variants do not
// (the count is no longer the generator's formula).
func scenario(algo, name string, impl, spec syntax.Proc, rel string, weak bool,
	f Fault, states int) Scenario {
	s := Scenario{
		Name: name, Algo: algo, Impl: impl, Spec: spec,
		Rel: rel, Weak: weak, WantEquiv: true, Fault: f, States: states,
	}
	if f.Kind != FaultNone {
		s.Name = fmt.Sprintf("%s/%s", name, f)
		s.Impl = Inject(impl, f)
		s.WantEquiv = false
		s.States = 0
	}
	return s
}

// Inject applies the fault to the f.Node-th receiving station of impl (the
// stations are the top-level parallel components that offer an input,
// counted left to right, 1-based — component order is generator order, so
// node numbering matches the protocol's own). Restrictions are preserved:
// the rewrite happens on the flat parallel body under any top-level ν.
//
// Out-of-range nodes clamp to the last station, so every (fault, size)
// combination is well-defined.
func Inject(impl syntax.Proc, f Fault) syntax.Proc {
	if f.Kind == FaultNone {
		return impl
	}
	// Peel top-level restrictions.
	var binders []names.Name
	body := impl
	for {
		r, ok := body.(syntax.Res)
		if !ok {
			break
		}
		binders = append(binders, r.X)
		body = r.Body
	}
	parts := syntax.ParList(body)
	// Identify the receiving stations.
	var stations []int
	for i, p := range parts {
		if offersInput(p) {
			stations = append(stations, i)
		}
	}
	if len(stations) == 0 {
		return impl
	}
	node := f.Node
	if node < 1 {
		node = 1
	}
	if node > len(stations) {
		node = len(stations)
	}
	idx := stations[node-1]
	switch f.Kind {
	case FaultCrashed:
		parts = append(append([]syntax.Proc{}, parts[:idx]...), parts[idx+1:]...)
	case FaultDeaf:
		parts[idx] = rewriteInputs(parts[idx], func(in syntax.In) syntax.In {
			in.Ch = names.Name(fmt.Sprintf("deaf%d", node))
			return in
		}, nil)
	case FaultLossy:
		parts[idx] = rewriteInputs(parts[idx], nil, func(cont syntax.Proc) syntax.Proc {
			return syntax.Choice(cont, syntax.TauP(syntax.PNil))
		})
	}
	out := syntax.Group(parts...)
	for i := len(binders) - 1; i >= 0; i-- {
		out = syntax.Res{X: binders[i], Body: out}
	}
	return out
}

// lossyRel picks the conformance relation for a scenario where nothing
// downstream of the faulted station depends on the dropped message (the
// single-hop algorithms, and multicast where every hand-off is last-hop).
// There a lossy drop is invisible both to STRONG step equivalence (the
// drop-τ counts as the very step the lost output would have been) and to
// WEAK step equivalence (whose answers are arbitrary autonomous sequences,
// so a recoverable deficit never shows — see TestLossyStepInvisibility).
// Weak BARBED equivalence is the relation in the suite that observes the
// drop: the drop-τ must be answered by τ* alone, and it lands in a state
// whose weak barbs are missing the lost observable. For that to bite, the
// drop-τ must be REACHABLE by the bisimulation — barbed bisim only
// traverses τ moves, so the single-hop generators additionally close both
// sides under ν(trigger) (the noisy wrapper), making the initial broadcast
// internal; multicast's hand-offs are private already. Non-lossy faults
// keep the scenario's base relation.
func lossyRel(rel string, weak bool, f Fault) (string, bool) {
	if f.Kind == FaultLossy {
		return cert.RelBarbed, true
	}
	return rel, weak
}

// offersInput reports whether a component's top-level behaviour includes an
// input prefix (possibly as a summand).
func offersInput(p syntax.Proc) bool {
	switch t := p.(type) {
	case syntax.Prefix:
		_, ok := t.Pre.(syntax.In)
		return ok
	case syntax.Sum:
		return offersInput(t.L) || offersInput(t.R)
	}
	return false
}

// rewriteInputs maps every input prefix of the component: pre rewrites the
// prefix itself (deaf), cont rewrites its continuation (lossy). Only the
// component's prefix spine and summands are visited — faults model a broken
// station interface, not a rewritten future.
func rewriteInputs(p syntax.Proc, pre func(syntax.In) syntax.In,
	cont func(syntax.Proc) syntax.Proc) syntax.Proc {
	switch t := p.(type) {
	case syntax.Prefix:
		if in, ok := t.Pre.(syntax.In); ok {
			if pre != nil {
				in = pre(in)
			}
			c := t.Cont
			if cont != nil {
				c = cont(c)
			}
			return syntax.Prefix{Pre: in, Cont: c}
		}
		return syntax.Prefix{Pre: t.Pre, Cont: rewriteInputs(t.Cont, pre, cont)}
	case syntax.Sum:
		return syntax.Sum{L: rewriteInputs(t.L, pre, cont), R: rewriteInputs(t.R, pre, cont)}
	}
	return p
}

func pow2(n int) int { return 1 << uint(n) }
