package equiv

import (
	"slices"

	"bpi/internal/cert"
	"bpi/internal/names"
)

// This file turns a finished engine run into a checkable certificate
// (internal/cert): the surviving relation when the root pair is related,
// or a well-founded distinguishing strategy when it is not. Emission only
// reads engine state left by explore+fixpoint; the verifier re-derives
// everything else.

// barbWitness picks the deterministic witness of a strong-barb mismatch
// between two sorted, differing barb lists: the least name of the left side
// missing on the right, else the least name of the right side missing on
// the left, as the side that owns it and its index in that side's list.
func barbWitness(pb, qb []names.Name) (moveSide, int) {
	for i, a := range pb {
		if !slices.Contains(qb, a) {
			return sideLeft, i
		}
	}
	for i, a := range qb {
		if !slices.Contains(pb, a) {
			return sideRight, i
		}
	}
	panic("equiv: barbWitness of equal barb lists")
}

// certificate assembles the evidence for the decided root pair.
func (e *engine) certificate(root int32) *cert.Certificate {
	rn := e.nodes.at(root)
	c := &cert.Certificate{
		Version:  cert.Version,
		Relation: e.sp.rel,
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

// relation emits every pair that survived the fixpoint. Each obligation of
// a surviving pair keeps a live candidate, so the emitted relation is
// closed; the verifier re-derives the answers and finds one in it. Terms
// are numbered by first use in pair order, the root's first.
func (e *engine) relation(c *cert.Certificate) {
	live := 0
	for i := int32(0); int(i) < e.nodes.len(); i++ {
		if !e.nodes.at(i).bad {
			live++
		}
	}
	c.Pairs = make([][2]int, 0, live)
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
	for i := int32(0); int(i) < e.nodes.len(); i++ {
		if n := e.nodes.at(i); !n.bad {
			p := termIdx(n.p)
			c.Pairs = append(c.Pairs, [2]int{p, termIdx(n.q)})
		}
	}
}

// strategy emits the distinguishing strategy DAG rooted at the dead root
// pair: per node, the refuted obligation chosen by chooseKill, with one reply
// (and recursively one child node) per defender answer.
func (e *engine) strategy(c *cert.Certificate, root int32) {
	rank := e.killRanks()
	memo := map[int32]int{}
	var emit func(i int32) int
	emit = func(i int32) int {
		if ci, ok := memo[i]; ok {
			return ci
		}
		ci := len(c.Nodes)
		memo[i] = ci
		c.Nodes = append(c.Nodes, cert.Strategy{})
		n := e.nodes.at(i)
		s := cert.Strategy{P: stringOf(n.p), Q: stringOf(n.q)}
		if n.staticBad {
			s.Kind, s.Side, s.Label = "barb", n.failSide.String(), string(n.barb())
			c.Nodes[ci] = s
			return ci
		}
		ob := e.chooseKill(n, rank, rank[i])
		mv := e.move(ob)
		s.Kind, s.Side = mv.kind.String(), mv.side.String()
		s.Label = mv.label
		s.Ch = string(mv.ch)
		s.Payload = stringNames(mv.payload)
		s.To = stringOf(mv.mover)
		seen := map[uint64]bool{}
		for k := ob.lo; k < ob.hi; k++ {
			cd := *e.cands.at(k)
			cn := e.nodes.at(cd)
			def := cn.q
			if mv.side == sideRight {
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
func (e *engine) killRanks() []int32 {
	rank := make([]int32, e.nodes.len())
	for i := range rank {
		rank[i] = -1
	}
	for changed := true; changed; {
		changed = false
		for i := range rank {
			n := e.nodes.at(int32(i))
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
func (e *engine) nodeRank(n *pairNode, rank []int32) int32 {
	if n.staticBad {
		return 0
	}
	best := int32(-1)
	for o := n.obLo; o < n.obHi; o++ {
		top, ok := e.candidateRank(e.obs.at(o), rank)
		if !ok {
			continue
		}
		if best < 0 || top+1 < best {
			best = top + 1
		}
	}
	return best
}

// candidateRank is the maximum rank of ob's candidates (-1 for none), and
// false when some candidate is not ranked yet.
func (e *engine) candidateRank(ob *obligation, rank []int32) (int32, bool) {
	top := int32(-1)
	for k := ob.lo; k < ob.hi; k++ {
		ci := *e.cands.at(k)
		if rank[ci] < 0 {
			return 0, false
		}
		top = max(top, rank[ci])
	}
	return top, true
}

// chooseKill picks the first obligation (construction order, so deterministic)
// whose candidates are all dead with ranks strictly below r. killRanks
// guarantees one exists for every ranked node.
func (e *engine) chooseKill(n *pairNode, rank []int32, r int32) *obligation {
	for o := n.obLo; o < n.obHi; o++ {
		if top, ok := e.candidateRank(e.obs.at(o), rank); ok && top < r {
			return e.obs.at(o)
		}
	}
	return e.obs.at(n.obLo) // unreachable when r came from killRanks
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
