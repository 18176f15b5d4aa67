// Certificate emission for the partition-refinement engine: the coarsest
// stable partition IS a bisimulation when read as the relation of intra-block
// pairs, so a positive verdict converts directly into a relation certificate;
// a negative verdict converts into a distinguishing strategy whose
// well-founded rank is the refinement round at which the attacked pair first
// separated. Certificates use the same format and verifier as the pair
// engine's (internal/cert), giving the refine-vs-equiv cross-validation a
// third, certificate-level leg: two independent engines must not only agree
// on the verdict but produce independently replayable evidence for it.
//
// Soundness of the term translation: lts exploration interns states via
// syntax.Simplify and derives successors from the simplified terms with
// semantics.CanonTrans for bound outputs — exactly the derivation the
// certificate verifier re-runs — so graph edges and re-derived transitions
// agree key-for-key. Certification requires a graph built with
// AutonomousOnly (as the step/barbed deciders themselves do).
package refine

import (
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/lts"
	"bpi/internal/syntax"
)

// CertifyStrongStep decides strong step bisimilarity between the graph's
// first two roots and returns a checkable certificate for the verdict.
func CertifyStrongStep(g *lts.Graph) (*cert.Certificate, bool, error) {
	return certifyStrong(g, cert.RelStep)
}

// CertifyStrongBarbed decides strong barbed bisimilarity between the graph's
// first two roots and returns a checkable certificate for the verdict.
func CertifyStrongBarbed(g *lts.Graph) (*cert.Certificate, bool, error) {
	return certifyStrong(g, cert.RelBarbed)
}

func certifyStrong(g *lts.Graph, rel string) (*cert.Certificate, bool, error) {
	if len(g.Roots) < 2 {
		return nil, false, fmt.Errorf("refine: need two roots")
	}
	if g.Truncated {
		return nil, false, fmt.Errorf("refine: graph truncated; verdict would be unsound")
	}
	tauOnly := rel == cert.RelBarbed
	labelOf := func(e lts.Edge) string {
		if tauOnly && !e.Act.IsTau() {
			return Skip
		}
		return ""
	}
	hist := refineHistory(g, labelOf, func(i int) string { return barbKey(g, i) })
	block := hist[len(hist)-1]
	r0, r1 := g.Roots[0], g.Roots[1]
	c := &cert.Certificate{
		Version:  cert.Version,
		Relation: rel,
		P:        syntax.String(g.States[r0].Proc),
		Q:        syntax.String(g.States[r1].Proc),
	}
	if block[r0] == block[r1] {
		c.Related = true
		emitPartition(c, g, block)
		return c, true, nil
	}
	st := &strategist{g: g, hist: hist, tauOnly: tauOnly, memo: map[[2]int]int{}}
	if rel == cert.RelBarbed {
		st.kind = "tau"
	} else {
		st.kind = "step"
	}
	if err := st.distinguish(r0, r1); err != nil {
		return nil, false, err
	}
	c.Nodes = st.nodes
	return c, false, nil
}

// succs returns the deduplicated successor states of i under the engine's
// move filter (all autonomous edges, or τ edges only).
func succs(g *lts.Graph, i int, tauOnly bool) []int {
	var out []int
	seen := map[int]bool{}
	for _, e := range g.Edges[i] {
		if tauOnly && !e.Act.IsTau() {
			continue
		}
		if !seen[e.Dst] {
			seen[e.Dst] = true
			out = append(out, e.Dst)
		}
	}
	return out
}

// emitPartition lists every intra-block pair. Stability of the partition
// gives each successor of one member a block-equal successor of the other,
// which the verifier finds among the answers it re-derives.
func emitPartition(c *cert.Certificate, g *lts.Graph, block []int) {
	n := g.NumStates()
	c.Terms = make([]string, n)
	for i := 0; i < n; i++ {
		c.Terms[i] = syntax.String(g.States[i].Proc)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if block[i] == block[j] {
				c.Pairs = append(c.Pairs, [2]int{i, j})
			}
		}
	}
}

// strategist emits a distinguishing strategy from the refinement history.
// The recursion is well-founded: a pair separated at round t is attacked by a
// move whose every defender answer lands in a pair separated strictly
// earlier (round 0 separations are barb mismatches, which are leaves).
type strategist struct {
	g       *lts.Graph
	hist    [][]int
	kind    string
	tauOnly bool
	nodes   []cert.Strategy
	memo    map[[2]int]int
}

// sep returns the first round at which i and j live in different blocks,
// or -1 if they never separate.
func (st *strategist) sep(i, j int) int {
	for t, blk := range st.hist {
		if blk[i] != blk[j] {
			return t
		}
	}
	return -1
}

func (st *strategist) term(i int) string { return syntax.String(st.g.States[i].Proc) }

// distinguish emits (or reuses) the strategy node attacking the pair (i, j)
// and returns nothing but an error; the node index is recorded in memo.
func (st *strategist) distinguish(i, j int) error {
	_, err := st.node(i, j)
	return err
}

func (st *strategist) node(i, j int) (int, error) {
	if idx, ok := st.memo[[2]int{i, j}]; ok {
		return idx, nil
	}
	t := st.sep(i, j)
	if t < 0 {
		return 0, fmt.Errorf("refine: internal: states %d/%d are not distinguished", i, j)
	}
	idx := len(st.nodes)
	st.nodes = append(st.nodes, cert.Strategy{})
	st.memo[[2]int{i, j}] = idx
	st.memo[[2]int{j, i}] = idx

	if t == 0 {
		// Barb mismatch: name the first channel one side barbs on and the
		// other does not.
		bi, bj := st.g.Barbs(i), st.g.Barbs(j)
		side, ch := "", ""
		for _, a := range bi.Sorted() {
			if !bj.Contains(a) {
				side, ch = "left", string(a)
				break
			}
		}
		if side == "" {
			for _, a := range bj.Sorted() {
				if !bi.Contains(a) {
					side, ch = "right", string(a)
					break
				}
			}
		}
		if side == "" {
			return 0, fmt.Errorf("refine: internal: round-0 separation of %d/%d without a barb mismatch", i, j)
		}
		st.nodes[idx] = cert.Strategy{P: st.term(i), Q: st.term(j), Kind: "barb", Side: side, Label: ch}
		return idx, nil
	}

	prev := st.hist[t-1]
	// Find an unanswerable move: a successor of one side whose round-(t-1)
	// block no filtered successor of the other side reaches.
	for _, dir := range [2]struct {
		side            string
		mover, defender int
	}{{"left", i, j}, {"right", j, i}} {
		for _, m := range succs(st.g, dir.mover, st.tauOnly) {
			unanswerable := true
			for _, d := range succs(st.g, dir.defender, st.tauOnly) {
				if prev[d] == prev[m] {
					unanswerable = false
					break
				}
			}
			if !unanswerable {
				continue
			}
			var replies []cert.Reply
			for _, d := range succs(st.g, dir.defender, st.tauOnly) {
				var child int
				var err error
				if dir.side == "left" {
					child, err = st.node(m, d)
				} else {
					child, err = st.node(d, m)
				}
				if err != nil {
					return 0, err
				}
				replies = append(replies, cert.Reply{To: st.term(d), Next: child})
			}
			st.nodes[idx] = cert.Strategy{P: st.term(i), Q: st.term(j), Kind: st.kind,
				Side: dir.side, To: st.term(m), Replies: replies}
			return idx, nil
		}
	}
	return 0, fmt.Errorf("refine: internal: no distinguishing move for %d/%d at round %d", i, j, t)
}
