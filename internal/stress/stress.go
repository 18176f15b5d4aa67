// Package stress generates parameterised bπ broadcast topologies whose
// state spaces are large but exactly predictable — the scaling corpus for
// the parallel engines and seed material for the fuzz oracle. The families
// follow the broadcast-and-aggregation systems Hüttel & Pratas model in BBC:
// information spreads by unbuffered broadcasts that every parallel component
// must receive or discard.
//
// All generators are deterministic (same parameters, same term) and produce
// finite, recursion-free terms, so every LTS here is finite and every
// equivalence query terminates without hitting closure budgets.
//
//   - Chain/Rings: token-relay lines. One lap of a chain of n stations is a
//     line of n+2 states; k disjoint rings in parallel interleave to
//     (n+2)^k states — a smooth dial for state-space size with branching
//     factor k, which is what the pair engine's scaling curve sweeps.
//   - Mesh: a gossip line with redundant links — station i wakes on either
//     of its two predecessors, so the broadcast frontier is 2–3 wide and
//     the interleavings give a few states per station beyond the chain.
//   - Tree: a k-ary broadcast tree; the reachable configurations are the
//     order ideals of the node poset, which explode combinatorially with
//     depth (complete binary tree: 2, 5, 26, 677, 458330 … per level).
package stress

import (
	"fmt"

	"bpi/internal/names"
	"bpi/internal/syntax"
)

func ch(prefix string, i int) names.Name {
	return names.Name(fmt.Sprintf("%s%d", prefix, i))
}

// Chain returns the one-lap broadcast relay chain of n stations over the
// channels prefix0 … prefixN: a starter broadcasting prefix0 and n relays,
// each waking on its station's channel and broadcasting the next. The final
// broadcast fires into silence. Its LTS is a line of exactly n+2 states.
func Chain(prefix string, n int) syntax.Proc {
	parts := make([]syntax.Proc, 0, n+1)
	parts = append(parts, syntax.SendN(ch(prefix, 0)))
	for i := 0; i < n; i++ {
		parts = append(parts, syntax.Recv(ch(prefix, i), nil, syntax.SendN(ch(prefix, i+1))))
	}
	return syntax.Group(parts...)
}

// Rings returns k disjoint token-relay chains of n stations each, running
// in parallel. Chains share no channels, so their laps interleave freely:
// the LTS has exactly (n+2)^k states and every non-terminal state has at
// most k autonomous moves.
func Rings(k, n int) syntax.Proc {
	parts := make([]syntax.Proc, k)
	for r := 0; r < k; r++ {
		parts[r] = Chain(fmt.Sprintf("r%ds", r), n)
	}
	return syntax.Group(parts...)
}

// Mesh returns a gossip line of n stations with redundant links: station 0
// seeds the gossip on m0; station i ≥ 1 wakes on its predecessor's channel
// — or, from station 2 on, alternatively on its pre-predecessor's (a Sum)
// — and then broadcasts its own. Redundancy keeps the broadcast frontier
// 2–3 stations wide, so unlike a chain the interleavings branch.
func Mesh(n int) syntax.Proc {
	parts := make([]syntax.Proc, 0, n)
	parts = append(parts, syntax.SendN(ch("m", 0)))
	for i := 1; i < n; i++ {
		wake := syntax.Recv(ch("m", i-1), nil, syntax.SendN(ch("m", i)))
		if i >= 2 {
			wake = syntax.Choice(wake,
				syntax.Recv(ch("m", i-2), nil, syntax.SendN(ch("m", i))))
		}
		parts = append(parts, wake)
	}
	return syntax.Group(parts...)
}

// Tree returns a broadcast tree: the root announces on t0, and every node
// at depth 1…depth wakes on its parent's channel and re-broadcasts on its
// own (leaves broadcast into silence). Nodes are numbered breadth-first, so
// the term has (fanout^(depth+1)-1)/(fanout-1) components and the LTS
// states are the order ideals of the tree.
func Tree(fanout, depth int) syntax.Proc {
	parts := []syntax.Proc{syntax.SendN(ch("t", 0))}
	level := []int{0}
	next := 1
	for d := 1; d <= depth; d++ {
		nl := make([]int, 0, len(level)*fanout)
		for _, p := range level {
			for c := 0; c < fanout; c++ {
				v := next
				next++
				parts = append(parts, syntax.Recv(ch("t", p), nil, syntax.SendN(ch("t", v))))
				nl = append(nl, v)
			}
		}
		level = nl
	}
	return syntax.Group(parts...)
}

// Rotate returns p with its top-level parallel components rotated by one —
// a syntactic permutation that is semantically congruent to p (parallel
// composition is commutative and associative for every equivalence of the
// paper), which makes (p, Rotate(p)) an equivalent-by-construction pair.
func Rotate(p syntax.Proc) syntax.Proc {
	parts := syntax.ParList(p)
	if len(parts) < 2 {
		return p
	}
	rotated := append(append([]syntax.Proc{}, parts[1:]...), parts[0])
	return syntax.Group(rotated...)
}

// Config is one named stress instance: an equivalent-by-construction pair
// and the exact state count of P's autonomous LTS (pinned by the package
// tests, relied on by bpibench's curve labels).
type Config struct {
	Name string
	P, Q syntax.Proc
	// States is the exact number of states of P's autonomous LTS.
	States int
}

func pair(name string, states int, p syntax.Proc) Config {
	return Config{Name: name, P: p, Q: Rotate(p), States: states}
}

// Corpus returns the small-to-mid instances used as oracle/fuzz seeds and
// in the race/determinism tests: one of each topology family, all small
// enough to decide in milliseconds yet shaped like the scaling instances.
func Corpus() []Config {
	return []Config{
		pair("rings-2x3", 25, Rings(2, 3)),
		pair("rings-3x2", 64, Rings(3, 2)),
		pair("mesh-8", meshStates(8), Mesh(8)),
		pair("tree-2x3", 677, Tree(2, 3)),
	}
}

// GoldenMesh returns the mid-size gossip mesh whose verdict, pair count and
// certificate are pinned bit-for-bit by the package's golden test.
func GoldenMesh() Config {
	return pair("mesh-12", meshStates(12), Mesh(12))
}

// meshStates is the closed form of Mesh's reachable-state count, pinned
// against lts.Explore by TestSizes: the 2-wide redundant frontier makes the
// count Fibonacci in the station count — s(n) = s(n-1) + s(n-2), with 3
// states for two stations and 5 for three.
func meshStates(n int) int {
	if n < 2 {
		return 2
	}
	a, b := 2, 3 // s(1), s(2)
	for i := 2; i < n; i++ {
		a, b = b, a+b
	}
	return b
}

// Ladder returns the bench scaling instances, smallest first: gossip
// meshes, the family with the best states-per-component ratio (Fibonacci
// states on a linear term). That ratio is what makes 10^5+ states
// tractable at all — per-state transition derivation is superlinear in
// the component count (every broadcast is composed across the whole
// parallel term), so a 24-station mesh reaches 121393 states while a
// rings instance of that size would need 30+ components at several
// milliseconds per state. Mesh off-diagonal pairs also survive the barb
// check for a few layers (distinct histories can expose the same
// frontier), so the pair space is ~24x the state count — a genuine pair
// engine workload rather than a pure interning benchmark.
func Ladder() []Config {
	return []Config{
		pair("mesh-20", meshStates(20), Mesh(20)),
		pair("mesh-22", meshStates(22), Mesh(22)),
		pair("mesh-24", meshStates(24), Mesh(24)),
	}
}
