package equiv

import (
	"slices"

	"bpi/internal/cert"
	"bpi/internal/names"
)

// This file turns a finished engine run into a checkable certificate
// (internal/cert): the surviving relation with one witness move per
// discharged obligation when the root pair is related, or a well-founded
// distinguishing strategy when it is not. Emission only reads engine state
// left by explore+fixpoint; the verifier re-derives everything else.

// barbWitness picks the deterministic witness of a strong-barb mismatch
// between two sorted barb lists: the least name of the left side missing on
// the right, else the least name of the right side missing on the left,
// tagged with the side that owns it.
func barbWitness(pb, qb []names.Name) (string, names.Name) {
	for _, a := range pb {
		if !slices.Contains(qb, a) {
			return "left", a
		}
	}
	for _, a := range qb {
		if !slices.Contains(pb, a) {
			return "right", a
		}
	}
	return "left", ""
}

func (sp spec) relName() string {
	switch sp.kind {
	case relBarbed:
		return cert.RelBarbed
	case relStep:
		return cert.RelStep
	default:
		return cert.RelLabelled
	}
}

// certificate assembles the evidence for the decided root pair.
func (e *engine) certificate(root int) *cert.Certificate {
	rn := e.nodes[root]
	c := &cert.Certificate{
		Version:  cert.Version,
		Relation: e.sp.relName(),
		Weak:     e.sp.weak,
		Related:  !rn.bad,
		P:        stringOf(rn.p),
		Q:        stringOf(rn.q),
	}
	if rn.bad {
		e.strategy(c, root)
	} else {
		e.relation(c)
	}
	return c
}

// relation emits every pair that survived the fixpoint, with the first live
// candidate of each obligation as its witness move. Witnesses of surviving
// pairs survive too, so the emitted relation is closed.
func (e *engine) relation(c *cert.Certificate) {
	idx := map[uint64]int{}
	termIdx := func(ti *termInfo) int {
		if i, ok := idx[ti.id]; ok {
			return i
		}
		i := len(c.Terms)
		idx[ti.id] = i
		c.Terms = append(c.Terms, stringOf(ti))
		return i
	}
	for _, n := range e.nodes {
		if n.bad {
			continue
		}
		moves := make([]cert.Move, 0, len(n.obs))
		for _, ob := range n.obs {
			wi := -1
			for _, ci := range ob.candidates {
				if !e.nodes[ci].bad {
					wi = ci
					break
				}
			}
			if wi < 0 {
				continue // unreachable: surviving pairs keep a live candidate per obligation
			}
			w := e.nodes[wi]
			moves = append(moves, cert.Move{
				Side:    ob.mv.side,
				Kind:    ob.mv.kind,
				Label:   ob.mv.label,
				Ch:      string(ob.mv.ch),
				Payload: stringNames(ob.mv.payload),
				Pair:    [2]int{termIdx(w.p), termIdx(w.q)},
			})
		}
		c.Pairs = append(c.Pairs, [2]int{termIdx(n.p), termIdx(n.q)})
		c.Moves = append(c.Moves, moves)
	}
}

// strategy emits the distinguishing strategy DAG rooted at the dead root
// pair: per node, the refuted obligation chosen by chooseKill, with one reply
// (and recursively one child node) per defender answer.
func (e *engine) strategy(c *cert.Certificate, root int) {
	rank := e.killRanks()
	memo := map[int]int{}
	var emit func(i int) int
	emit = func(i int) int {
		if ci, ok := memo[i]; ok {
			return ci
		}
		ci := len(c.Nodes)
		memo[i] = ci
		c.Nodes = append(c.Nodes, cert.Strategy{})
		n := e.nodes[i]
		s := cert.Strategy{P: stringOf(n.p), Q: stringOf(n.q)}
		if n.staticBad {
			s.Kind, s.Side, s.Label = "barb", n.failSide, string(n.failBarb)
			c.Nodes[ci] = s
			return ci
		}
		ob := e.chooseKill(n, rank, rank[i])
		s.Kind, s.Side = ob.mv.kind, ob.mv.side
		s.Label = ob.mv.label
		s.Ch = string(ob.mv.ch)
		s.Payload = stringNames(ob.mv.payload)
		s.To = stringOf(ob.mv.mover)
		seen := map[uint64]bool{}
		for _, cd := range ob.candidates {
			cn := e.nodes[cd]
			def := cn.q
			if ob.mv.side == "right" {
				def = cn.p
			}
			if seen[def.id] {
				continue
			}
			seen[def.id] = true
			s.Replies = append(s.Replies, cert.Reply{To: stringOf(def), Next: emit(cd)})
		}
		c.Nodes[ci] = s
		return ci
	}
	emit(root)
}

// killRanks assigns each dead pair the height of its refutation: staticBad
// pairs and pairs with an answerless obligation get 0, other dead pairs get
// 1 + the maximum candidate rank of some fully-refuted obligation. Ranks are
// assigned once and chooseKill only follows obligations whose candidates
// rank strictly below the node, so emitted strategies are DAGs — the
// verifier rejects cyclic refutations outright.
func (e *engine) killRanks() []int {
	rank := make([]int, len(e.nodes))
	for i := range rank {
		rank[i] = -1
	}
	for changed := true; changed; {
		changed = false
		for i, n := range e.nodes {
			if !n.bad || rank[i] >= 0 {
				continue
			}
			if r := e.nodeRank(n, rank); r >= 0 {
				rank[i] = r
				changed = true
			}
		}
	}
	return rank
}

// nodeRank is the candidate rank of n this pass: 0 for static failures and
// answerless obligations, else the minimum over obligations whose candidates
// are all ranked of (max candidate rank) + 1; -1 when none is ready yet.
func (e *engine) nodeRank(n *pairNode, rank []int) int {
	if n.staticBad {
		return 0
	}
	best := -1
	for _, ob := range n.obs {
		max, ok := -1, true
		for _, ci := range ob.candidates {
			if rank[ci] < 0 {
				ok = false
				break
			}
			if rank[ci] > max {
				max = rank[ci]
			}
		}
		if !ok {
			continue
		}
		if best < 0 || max+1 < best {
			best = max + 1
		}
	}
	return best
}

// chooseKill picks the first obligation (construction order, so deterministic)
// whose candidates are all dead with ranks strictly below r. killRanks
// guarantees one exists for every ranked node.
func (e *engine) chooseKill(n *pairNode, rank []int, r int) obligation {
	for _, ob := range n.obs {
		max, ok := -1, true
		for _, ci := range ob.candidates {
			if rank[ci] < 0 {
				ok = false
				break
			}
			if rank[ci] > max {
				max = rank[ci]
			}
		}
		if ok && max < r {
			return ob
		}
	}
	return n.obs[0] // unreachable when r came from killRanks
}

func stringNames(ns []names.Name) []string {
	if len(ns) == 0 {
		return nil
	}
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = string(n)
	}
	return out
}
