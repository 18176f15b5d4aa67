// Package lts builds explicit, finite labelled transition graphs from
// bπ-calculus terms by exhaustively grounding the symbolic early semantics
// over a finite name universe.
//
// Finite-universe soundness. Early input transitions range over a countable
// set of names; for deciding the bisimilarities of the paper between p and q
// it suffices to instantiate inputs with (i) the free names of the states in
// play and (ii) a bounded reservoir of fresh names (one per simultaneously
// open input position; names.Universe lists both), because any further
// fresh name is related to the reservoir names by an injective renaming,
// and bisimilarity is preserved by injective renamings (Lemma 18 of the
// paper). Extruded bound-output names are canonicalised jointly with their
// target states and join the universe of the successor state via its free
// names.
package lts

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"bpi/internal/actions"
	"bpi/internal/names"
	"bpi/internal/obs"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Edge is a ground transition to the state with index Dst. Lab is the
// canonical rendering of Act used for label comparison (bound output names
// are pre-canonicalised, so syntactically different extrusions compare equal
// exactly when alpha-equivalent).
type Edge struct {
	Act actions.Act
	Lab string
	Dst int
}

// State is an explored process state.
type State struct {
	Proc syntax.Proc
}

// Graph is an explicit LTS over interned states.
type Graph struct {
	States []State
	Edges  [][]Edge
	// Roots holds the state indices of the exploration roots, in input order.
	Roots []int
	// Truncated reports that a budget stopped the exploration before the
	// reachable set was exhausted; equivalence verdicts computed on a
	// truncated graph are not conclusive.
	Truncated bool
	index     map[string]int
}

// Options configures exploration.
type Options struct {
	// MaxStates bounds the number of explored states (default 8192).
	MaxStates int
	// AutonomousOnly restricts the graph to autonomous moves (τ and
	// outputs), skipping input instantiation entirely. Barbed and step
	// bisimilarity are decided on such graphs; they never inspect input
	// transitions.
	AutonomousOnly bool
	// Obs, when non-nil, receives an lts.explore span and the counters
	// lts.states and lts.edges.
	Obs *obs.Tracer
}

func (o Options) maxStates() int {
	if o.MaxStates <= 0 {
		return 8192
	}
	return o.MaxStates
}

// edgesPerState sets the edge budget of an exploration: it may hold at most
// edgesPerState ground edges per state of its MaxStates budget. A state
// whose inputs range over a wide universe has one edge per payload tuple,
// and the state budget alone would let a single state hold them all.
const edgesPerState = 16

// maxEdges is the exploration's edge budget, edgesPerState × maxStates,
// saturating at math.MaxInt.
func (o Options) maxEdges() int {
	if n := o.maxStates(); n <= math.MaxInt/edgesPerState {
		return n * edgesPerState
	}
	return math.MaxInt
}

// ErrEdgeBudget reports that an exploration stopped because it would hold
// more ground edges than its budget, edgesPerState per state of its state
// budget. The graph holds the states explored before the one whose edges
// overflowed the budget.
type ErrEdgeBudget struct{ limit int }

func (e ErrEdgeBudget) Error() string {
	return fmt.Sprintf("lts: exploration exceeds its budget of %d ground edges (%d per state of the state budget)",
		e.limit, edgesPerState)
}

// Explore builds the graph reachable from the given roots.
func Explore(sys *semantics.System, roots []syntax.Proc, opt Options) (*Graph, error) {
	return ExploreCtx(context.Background(), sys, roots, opt)
}

// ExploreCtx is Explore honouring ctx. The context is checked between
// states and at every instantiated input tuple, so a deadline stops even a
// single state with a huge input fan-out; the error then wraps ctx.Err()
// and the graph holds what was explored so far. The edge budget is checked
// before every ground edge is kept, so a wide input fails with
// ErrEdgeBudget once the exploration would hold too many.
func ExploreCtx(ctx context.Context, sys *semantics.System, roots []syntax.Proc, opt Options) (*Graph, error) {
	span := opt.Obs.Span("lts.explore")
	defer span.End()
	g := &Graph{index: map[string]int{}}
	base := names.NewSet()
	for _, r := range roots {
		base = base.AddAll(syntax.FreeNames(r))
	}

	var frontier []int
	for _, r := range roots {
		r = syntax.Simplify(r)
		i, fresh := g.intern(r, syntax.Key(r))
		g.Roots = append(g.Roots, i)
		if fresh {
			frontier = append(frontier, i)
		}
	}
	err := exploreFrom(ctx, sys, g, frontier, base, opt)
	opt.Obs.Count("lts.states", int64(g.NumStates()))
	opt.Obs.Count("lts.edges", int64(g.NumEdges()))
	return g, err
}

// intern returns the index of the state with key k, adding p under that key
// when it is new.
func (g *Graph) intern(p syntax.Proc, k string) (int, bool) {
	if i, ok := g.index[k]; ok {
		return i, false
	}
	i := len(g.States)
	g.States = append(g.States, State{p})
	g.Edges = append(g.Edges, nil)
	g.index[k] = i
	return i, true
}

// canceled wraps a context error observed mid-exploration.
func canceled(err error) error { return fmt.Errorf("lts: exploration canceled: %w", err) }

// errNoRoom is groundEdges' report that a state's edges overflow the room
// left in the edge budget; exploreFrom turns it into ErrEdgeBudget.
var errNoRoom = errors.New("lts: no room for another ground edge")

// groundEdges computes the ground successor list of state p: τ and output
// transitions as-is (outputs canonicalised), and each k-ary input
// instantiated over names.Universe(base ∪ fn(p), k). The list holds at
// most room edges: one more fails with errNoRoom before it is appended.
func groundEdges(ctx context.Context, sys *semantics.System, p syntax.Proc, base names.Set, autonomousOnly bool, room int) ([]semantics.Trans, error) {
	ts, err := sys.Steps(p)
	if err != nil {
		return nil, err
	}
	known := base.Clone().AddAll(syntax.FreeNames(p))
	var out []semantics.Trans
	add := func(t semantics.Trans) error {
		if len(out) >= room {
			return errNoRoom
		}
		out = append(out, t)
		return nil
	}
	for _, t := range ts {
		switch t.Act.Kind {
		case actions.Tau:
			err = add(t)
		case actions.Out:
			act, tgt := semantics.CanonTrans(t.Act, t.Target)
			err = add(semantics.Trans{Act: act, Target: tgt})
		case actions.In:
			if autonomousOnly {
				continue
			}
			k := len(t.Act.Objs)
			err = names.EachTuple(names.Universe(known, k), k, func(recv []names.Name) error {
				if err := ctx.Err(); err != nil {
					return canceled(err)
				}
				act, tgt := semantics.Instantiate(t, recv)
				return add(semantics.Trans{Act: act, Target: tgt})
			})
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// exploreFrom is the exploration loop: strictly FIFO over the frontier,
// interning targets in edge order, so the graph shape depends only on this
// loop. held counts the edges the graph keeps, so each state's ground
// edges get the room the edge budget has left.
func exploreFrom(ctx context.Context, sys *semantics.System, g *Graph, frontier []int, base names.Set, opt Options) error {
	max, maxEdges := opt.maxStates(), opt.maxEdges()
	held := 0
	for len(frontier) > 0 {
		if err := ctx.Err(); err != nil {
			return canceled(err)
		}
		i := frontier[0]
		frontier = frontier[1:]
		ts, err := groundEdges(ctx, sys, g.States[i].Proc, base, opt.AutonomousOnly, maxEdges-held)
		if errors.Is(err, errNoRoom) {
			return ErrEdgeBudget{maxEdges}
		}
		if err != nil {
			return err
		}
		for _, t := range ts {
			if len(g.States) >= max {
				g.Truncated = true
				return nil
			}
			tp := syntax.Simplify(t.Target)
			j, fresh := g.intern(tp, syntax.Key(tp))
			g.Edges[i] = append(g.Edges[i], Edge{t.Act, t.Act.String(), j})
			if fresh {
				frontier = append(frontier, j)
			}
		}
		dedupEdges(&g.Edges[i])
		held += len(g.Edges[i])
	}
	return nil
}

// dedupEdges removes duplicate (label, destination) pairs and sorts edges
// deterministically.
func dedupEdges(es *[]Edge) {
	seen := map[string]bool{}
	out := (*es)[:0]
	for _, e := range *es {
		k := e.Lab + "→" + itoa(e.Dst)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lab != out[j].Lab {
			return out[i].Lab < out[j].Lab
		}
		return out[i].Dst < out[j].Dst
	})
	*es = out
}

func itoa(i int) string { return fmt.Sprintf("%d", i) }

// NumStates returns the number of interned states.
func (g *Graph) NumStates() int { return len(g.States) }

// NumEdges returns the total number of ground edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.Edges {
		n += len(es)
	}
	return n
}

// Barbs returns the set of strong barbs of state i: the subjects of its
// output transitions (p ↓a).
func (g *Graph) Barbs(i int) names.Set {
	out := make(names.Set)
	for _, e := range g.Edges[i] {
		if e.Act.IsOutput() {
			out = out.Add(e.Act.Subj)
		}
	}
	return out
}

// TauClosure returns, for every state, the set of states reachable by τ*
// (including itself), as sorted index slices.
func (g *Graph) TauClosure() [][]int {
	n := len(g.States)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		seen := map[int]bool{i: true}
		stack := []int{i}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Edges[s] {
				if e.Act.IsTau() && !seen[e.Dst] {
					seen[e.Dst] = true
					stack = append(stack, e.Dst)
				}
			}
		}
		idx := make([]int, 0, len(seen))
		for s := range seen {
			idx = append(idx, s)
		}
		sort.Ints(idx)
		out[i] = idx
	}
	return out
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("lts.Graph{states: %d, edges: %d, truncated: %v}", g.NumStates(), g.NumEdges(), g.Truncated)
}
