// Package refine implements partition refinement (Kanellakis–Smolka) over
// explicit transition graphs, as a second, independently-built engine for
// the autonomous relations of the paper — strong step bisimilarity
// (Definition 5) and strong barbed bisimilarity (Definition 3). Both only
// observe autonomous moves (outputs and τ) plus barbs, so they are decidable
// on lts.Graph objects built with AutonomousOnly.
//
// The experiment suite cross-validates this engine against the on-the-fly
// pair engine of internal/equiv on random terms: two implementations with
// entirely different state representations agreeing on every verdict is the
// strongest correctness evidence the reproduction has for these relations.
package refine

import (
	"fmt"
	"sort"
	"strings"

	"bpi/internal/lts"
)

// Partition assigns a block id to every state of the graph such that two
// states share a block iff they are bisimilar under the supplied view:
// labelOf maps an edge to its observable label (return "" to make the move
// label-blind, or skip the edge by returning the sentinel Skip), and
// initialOf gives the initial splitter (e.g. the barb set).
const Skip = "\x00skip"

// Refine computes the coarsest stable partition.
func Refine(g *lts.Graph, labelOf func(lts.Edge) string, initialOf func(state int) string) []int {
	hist := refineHistory(g, labelOf, initialOf)
	return hist[len(hist)-1]
}

// refineHistory runs the refinement keeping every intermediate partition:
// hist[0] is the initial split, hist[t] the partition after sweep t, and the
// last entry is stable. The round at which two states first separate is the
// well-founded rank of the distinguishing strategies emitted by the
// certificate layer.
func refineHistory(g *lts.Graph, labelOf func(lts.Edge) string, initialOf func(state int) string) [][]int {
	n := g.NumStates()
	block := make([]int, n)
	// Initial partition by initialOf.
	index := map[string]int{}
	for i := 0; i < n; i++ {
		key := initialOf(i)
		b, ok := index[key]
		if !ok {
			b = len(index)
			index[key] = b
		}
		block[i] = b
	}
	hist := [][]int{append([]int(nil), block...)}
	for {
		// Signature of a state: the sorted set of (label, target block).
		sigIndex := map[string]int{}
		next := make([]int, n)
		for i := 0; i < n; i++ {
			var parts []string
			seen := map[string]bool{}
			for _, e := range g.Edges[i] {
				l := labelOf(e)
				if l == Skip {
					continue
				}
				s := fmt.Sprintf("%s→%d", l, block[e.Dst])
				if !seen[s] {
					seen[s] = true
					parts = append(parts, s)
				}
			}
			sort.Strings(parts)
			sig := fmt.Sprintf("b%d|%s", block[i], strings.Join(parts, ","))
			b, ok := sigIndex[sig]
			if !ok {
				b = len(sigIndex)
				sigIndex[sig] = b
			}
			next[i] = b
		}
		// Detect change: the partition is stable when the refinement did not
		// split any block (same number of blocks and same grouping).
		if samePartition(block, next) {
			break
		}
		block = next
		hist = append(hist, append([]int(nil), block...))
	}
	return hist
}

func samePartition(a, b []int) bool {
	ab := map[int]int{}
	ba := map[int]int{}
	for i := range a {
		if x, ok := ab[a[i]]; ok {
			if x != b[i] {
				return false
			}
		} else {
			ab[a[i]] = b[i]
		}
		if x, ok := ba[b[i]]; ok {
			if x != a[i] {
				return false
			}
		} else {
			ba[b[i]] = a[i]
		}
	}
	return true
}

// barbKey renders the strong barbs of a state.
func barbKey(g *lts.Graph, i int) string {
	barbs := g.Barbs(i).Sorted()
	parts := make([]string, len(barbs))
	for k, b := range barbs {
		parts[k] = string(b)
	}
	return strings.Join(parts, ",")
}

// StrongStep decides strong step bisimilarity (Definition 5) between the
// graph's first two roots: autonomous moves are label-blind, barbs are the
// output subjects.
func StrongStep(g *lts.Graph) (bool, error) {
	if len(g.Roots) < 2 {
		return false, fmt.Errorf("refine: need two roots")
	}
	if g.Truncated {
		return false, fmt.Errorf("refine: graph truncated; verdict would be unsound")
	}
	block := Refine(g,
		func(e lts.Edge) string { return "" }, // label-blind step
		func(i int) string { return barbKey(g, i) },
	)
	return block[g.Roots[0]] == block[g.Roots[1]], nil
}

// StrongBarbed decides strong barbed bisimilarity (Definition 3) between
// the graph's first two roots: only τ moves are observable, plus barbs.
func StrongBarbed(g *lts.Graph) (bool, error) {
	if len(g.Roots) < 2 {
		return false, fmt.Errorf("refine: need two roots")
	}
	if g.Truncated {
		return false, fmt.Errorf("refine: graph truncated; verdict would be unsound")
	}
	block := Refine(g,
		func(e lts.Edge) string {
			if e.Act.IsTau() {
				return ""
			}
			return Skip // outputs are invisible as moves to barbed bisimilarity
		},
		func(i int) string { return barbKey(g, i) },
	)
	return block[g.Roots[0]] == block[g.Roots[1]], nil
}
