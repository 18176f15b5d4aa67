package lts

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

const (
	a names.Name = "a"
	b names.Name = "b"
	c names.Name = "c"
	x names.Name = "x"
	y names.Name = "y"
)

var sys = semantics.NewSystem(nil)

func parse(t *testing.T, src string) syntax.Proc {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func explore(t *testing.T, p syntax.Proc, opt Options) *Graph {
	t.Helper()
	g, err := Explore(sys, []syntax.Proc{p}, opt)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	return g
}

func TestExploreLinear(t *testing.T) {
	// ā.b̄.c̄: 4 states, 3 edges.
	p := syntax.Send(a, nil, syntax.Send(b, nil, syntax.SendN(c)))
	g := explore(t, p, Options{})
	if g.NumStates() != 4 || g.NumEdges() != 3 {
		t.Fatalf("graph: %v", g)
	}
	if g.Truncated {
		t.Fatal("unexpected truncation")
	}
	if stateOf(g, p) != g.Roots[0] {
		t.Fatal("root lookup failed")
	}
}

// stateOf returns the index of p's state in g, looked up by its key, or -1.
func stateOf(g *Graph, p syntax.Proc) int {
	if i, ok := g.index[syntax.Key(syntax.Simplify(p))]; ok {
		return i
	}
	return -1
}

func TestExploreInputInstantiation(t *testing.T) {
	// a?(x).x̄: universe {a} + 1 fresh ⇒ two input instantiations.
	p := syntax.Recv(a, []names.Name{x}, syntax.SendN(x))
	g := explore(t, p, Options{})
	root := g.Roots[0]
	if len(g.Edges[root]) != 2 {
		t.Fatalf("expected 2 instantiated inputs, got %v", g.Edges[root])
	}
	// Successors: ā and w̄ (the reservoir name).
	subs := names.NewSet()
	for _, e := range g.Edges[root] {
		subs = subs.Add(e.Act.Objs[0])
	}
	if !subs.Contains(a) || subs.Len() != 2 {
		t.Fatalf("instantiation universe wrong: %v", subs)
	}
}

func TestExploreAutonomousOnly(t *testing.T) {
	p := syntax.Choice(syntax.RecvN(a, x), syntax.SendN(b))
	g := explore(t, p, Options{AutonomousOnly: true})
	root := g.Roots[0]
	if len(g.Edges[root]) != 1 || !g.Edges[root][0].Act.IsOutput() {
		t.Fatalf("autonomous edges: %v", g.Edges[root])
	}
	if !g.Barbs(root).Equal(names.NewSet(b)) {
		t.Fatalf("barbs: %v", g.Barbs(root))
	}
}

func TestExploreCycleIsFinite(t *testing.T) {
	// (rec A(x). x̄.A(x))(a) has one state and a self-loop.
	r := syntax.Rec{Id: "A", Params: []names.Name{x},
		Body: syntax.Send(x, nil, syntax.Call{Id: "A", Args: []names.Name{x}}),
		Args: []names.Name{a}}
	g := explore(t, r, Options{})
	if g.NumStates() != 1 || g.NumEdges() != 1 {
		t.Fatalf("cycle graph: %v", g)
	}
	if g.Edges[0][0].Dst != 0 {
		t.Fatal("self-loop missing")
	}
}

func TestExploreTruncation(t *testing.T) {
	// Counter: (rec A(x). τ.(x̄ | A(x)))(a) accumulates parallel outputs, so
	// its state space is genuinely infinite.
	r := syntax.Rec{Id: "A", Params: []names.Name{x},
		Body: syntax.TauP(syntax.Group(syntax.SendN(x), syntax.Call{Id: "A", Args: []names.Name{x}})),
		Args: []names.Name{a}}
	g := explore(t, r, Options{MaxStates: 16})
	if !g.Truncated {
		t.Fatalf("expected truncation: %v", g)
	}
	if g.NumStates() > 16 {
		t.Fatalf("budget exceeded: %v", g)
	}
}

func TestSuccessiveExtrusionsStayDistinct(t *testing.T) {
	// νz āz.νw āw.z̄: after two extrusions the two private names must not be
	// conflated — the final barb is on the *first* extruded name.
	p := syntax.Restrict(
		syntax.Send(a, []names.Name{"z"},
			syntax.Restrict(syntax.Send(a, []names.Name{"w"}, syntax.SendN("z")), "w")),
		"z")
	g := explore(t, p, Options{AutonomousOnly: true})
	// Walk: root --(^e)a!(e)--> s1 --(^e')a!(e')--> s2 --e!--> s3.
	s := g.Roots[0]
	var first names.Name
	for hop := 0; hop < 2; hop++ {
		if len(g.Edges[s]) != 1 {
			t.Fatalf("hop %d: edges %v", hop, g.Edges[s])
		}
		e := g.Edges[s]
		if hop == 0 {
			first = e[0].Act.Bound[0]
		} else if e[0].Act.Bound[0] == first {
			t.Fatalf("second extrusion reused the first name %q", first)
		}
		s = e[0].Dst
	}
	if barbs := g.Barbs(s); !barbs.Equal(names.NewSet(first)) {
		t.Fatalf("final barb %v, want {%s}", barbs, first)
	}
}

// TestExploreCtxCanceled: a canceled context stops exploration with an
// error that unwraps to the context's — between states, and inside one
// state's input instantiation once 1,024 tuples have been built.
func TestExploreCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := ExploreCtx(ctx, sys, []syntax.Proc{syntax.Send(a, nil, syntax.SendN(b))}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("between states: got %v, want context.Canceled", err)
	}
	if g.NumStates() != 1 || g.NumEdges() != 0 {
		t.Fatalf("canceled exploration expanded the root: %v", g)
	}
	// a?(x,y,z) over 16 names (12 known reservoir names, a, and 3 reservoir
	// names outside those) is 4,096 tuples from a single state.
	p := syntax.Recv(a, []names.Name{x, y, "z"}, syntax.PNil)
	known := names.NewSet(names.Universe(nil, 12)...)
	ts, err := groundEdges(ctx, sys, p, known, false, math.MaxInt)
	if !errors.Is(err, context.Canceled) || ts != nil {
		t.Fatalf("inside a state: got %d transitions and %v, want context.Canceled", len(ts), err)
	}
	// A live context instantiates every tuple.
	ts, err = groundEdges(context.Background(), sys, p, known, false, math.MaxInt)
	if err != nil || len(ts) != 16*16*16 {
		t.Fatalf("live context: got %d transitions and %v, want %d", len(ts), err, 16*16*16)
	}
}

// TestExploreEdgeBudget drives wide inputs to the edge budget, which lets an
// exploration hold edgesPerState ground edges per state of MaxStates.
// a?(x0,…,x5) beside three outputs has 10^6 payload tuples at its root,
// each an edge that the state budget alone let one state keep (bpi explore
// of this term died of memory at 1.75 GB). Under MaxStates 64 it fails
// with ErrEdgeBudget at the 1,025th edge of its root, having allocated
// about 0.75 MB. The budget counts the edges of every state: a?(x0,x1)
// has 36 tuples a state, and under MaxStates 17 (272 edges) its 16 states
// and 312 edges fail part way, where MaxStates 20 explores them all.
func TestExploreEdgeBudget(t *testing.T) {
	wide := parse(t, "a?(x0,x1,x2,x3,x4,x5).0 | b0! | b1! | b2!")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Explore(sys, []syntax.Proc{wide}, Options{MaxStates: 64})
	runtime.ReadMemStats(&after)
	var eb ErrEdgeBudget
	if !errors.As(err, &eb) || eb.limit != 64*edgesPerState {
		t.Fatalf("6-ary input under MaxStates 64: %v, want ErrEdgeBudget{%d}", err, 64*edgesPerState)
	}
	if g.NumStates() != 1 || g.NumEdges() != 0 {
		t.Errorf("the root's edges overflowed the budget, yet the graph is %v", g)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 4<<20 {
		t.Errorf("reaching the edge budget allocated %d bytes, want at most 4 MiB", alloc)
	}

	narrow := parse(t, "a?(x0,x1).0 | b0! | b1! | b2!")
	g = explore(t, narrow, Options{MaxStates: 20})
	if g.NumStates() != 16 || g.NumEdges() != 312 || g.Truncated {
		t.Fatalf("2-ary input under MaxStates 20: %v, want 16 states and 312 edges", g)
	}
	g, err = Explore(sys, []syntax.Proc{narrow}, Options{MaxStates: 17})
	if !errors.As(err, &eb) || eb.limit != 17*edgesPerState {
		t.Fatalf("2-ary input under MaxStates 17: %v, want ErrEdgeBudget{%d}", err, 17*edgesPerState)
	}
	if n := g.NumEdges(); n == 0 || n > eb.limit {
		t.Errorf("the budget stopped the exploration holding %d edges, want between 1 and %d", n, eb.limit)
	}
	if !strings.Contains(err.Error(), "272 ground edges") {
		t.Errorf("error %q does not name the budget", err)
	}
	if got := (Options{MaxStates: math.MaxInt}).maxEdges(); got != math.MaxInt {
		t.Errorf("edge budget of MaxStates = MaxInt is %d, want it to saturate at MaxInt", got)
	}
}

// TestParallelExplorationMatchesSequential explores one term from 4
// goroutines sharing the package's System, whose memoised derivations
// every exploration reads and fills, and requires every graph to equal
// the sequential one: state order, edges, roots and truncation.
func TestParallelExplorationMatchesSequential(t *testing.T) {
	p := syntax.Group(
		syntax.Send(a, nil, syntax.SendN(b)),
		syntax.Recv(a, []names.Name{}, syntax.SendN(c)),
		syntax.TauP(syntax.RecvN(b)),
	)
	seq := explore(t, p, Options{})
	par := make([]*Graph, 4)
	errs := make([]error, len(par))
	var wg sync.WaitGroup
	for i := range par {
		wg.Add(1)
		go func() {
			defer wg.Done()
			par[i], errs[i] = Explore(sys, []syntax.Proc{p}, Options{})
		}()
	}
	wg.Wait()
	for i, g := range par {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(seq.States, g.States) || !reflect.DeepEqual(seq.Edges, g.Edges) ||
			!reflect.DeepEqual(seq.Roots, g.Roots) || seq.Truncated != g.Truncated {
			t.Fatalf("goroutine %d: graph diverges from sequential: seq %v, par %v", i, seq, g)
		}
	}
}

func TestTauClosure(t *testing.T) {
	// τ.τ.ā: closure of root covers all three pre-output states.
	p := syntax.TauP(syntax.TauP(syntax.SendN(a)))
	g := explore(t, p, Options{})
	cl := g.TauClosure()
	if len(cl[g.Roots[0]]) != 3 {
		t.Fatalf("tau closure: %v", cl[g.Roots[0]])
	}
	// The final state's closure is itself.
	last := stateOf(g, syntax.SendN(a))
	if len(cl[last]) != 1 {
		t.Fatalf("closure of output state: %v", cl[last])
	}
}

func TestMultiRootSharesStates(t *testing.T) {
	p := syntax.Send(a, nil, syntax.SendN(b))
	q := syntax.Send(c, nil, syntax.SendN(b))
	g, err := Explore(sys, []syntax.Proc{p, q}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Roots) != 2 {
		t.Fatalf("roots: %v", g.Roots)
	}
	// b̄ and nil are shared: 2 roots + b̄ + nil = 4 states.
	if g.NumStates() != 4 {
		t.Fatalf("states: %v", g)
	}
}

// TestFreshReservoirValid: an input's fresh names carry the fresh marker
// and avoid every known name, a reservoir name among them included.
func TestFreshReservoirValid(t *testing.T) {
	w1 := names.Universe(nil, 1)[0]
	p := syntax.Recv(a, []names.Name{x, y}, syntax.PNil)
	ts, err := groundEdges(context.Background(), sys, p, names.NewSet(w1), false, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	got := names.NewSet()
	for _, tr := range ts {
		got = got.AddSlice(tr.Act.Objs)
	}
	if got.Len() != 4 || !got.Contains(a) || !got.Contains(w1) {
		t.Fatalf("payload names %v, want a, %s and two reservoir names", got, w1)
	}
	for n := range got.Minus(names.NewSet(a)) {
		if !strings.Contains(string(n), names.FreshMarker) {
			t.Errorf("reservoir name %q must carry the fresh marker", n)
		}
	}
}

// TestExploreFreshNamePerInputPosition: a k-ary input is instantiated over
// k reservoir names outside the names in play, so a state reached only by
// receiving two distinct new names is explored, at the root and after an
// earlier input has made a reservoir name free.
func TestExploreFreshNamePerInputPosition(t *testing.T) {
	reservoirBarbs := func(g *Graph) int {
		n := 0
		for i := range g.States {
			for _, ch := range g.Barbs(i).Sorted() {
				if strings.Contains(string(ch), names.FreshMarker) {
					n++
				}
			}
		}
		return n
	}
	parse := func(src string) syntax.Proc {
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// Receiving (w✶1, w✶2) or (w✶2, w✶1) reaches w✶1! or w✶2!.
	g := explore(t, parse("a?(x,y).[x=a](0, [y=a](0, [x=y](0, x!)))"), Options{})
	if g.NumStates() != 4 || g.NumEdges() != 11 || reservoirBarbs(g) != 2 {
		t.Fatalf("graph %v has %d outputs on reservoir names, want 4 states, 11 edges and 2",
			g, reservoirBarbs(g))
	}
	// After z has received w✶1, x needs a second new name.
	g = explore(t, parse("a?(z).a?(x).[x=z](0, [x=a](0, x!))"), Options{})
	if reservoirBarbs(g) == 0 {
		t.Fatalf("graph %v never outputs on a reservoir name", g)
	}
}

func TestWriteDOT(t *testing.T) {
	p := syntax.Send(a, nil, syntax.SendN(b))
	g := explore(t, p, Options{})
	var buf strings.Builder
	if err := g.WriteDOT(&buf, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph lts", "peripheries=2", "a!", "->"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Truncation.
	var buf2 strings.Builder
	if err := g.WriteDOT(&buf2, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf2.String(), "…") {
		t.Error("long labels not clipped")
	}
}
