// Package machine executes bπ-calculus systems: it drives a closed process
// through its autonomous transitions (broadcast outputs and τ steps) under a
// pluggable scheduler, recording the visible broadcasts as a trace.
//
// This is the "run it" counterpart to the analysis stack: the cycle
// detector, the transaction system and the PVM encodings of the paper's
// Section 2.2 all execute on this machine. A Monte-Carlo pool (RunMany)
// executes many randomly-scheduled runs concurrently on a worker pool,
// which is how the reproduction estimates reachability probabilities
// ("does the detector always fire?") on one machine.
package machine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"bpi/internal/actions"
	"bpi/internal/names"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

// Scheduler selects which of n enabled autonomous transitions fires at a
// given step.
type Scheduler interface {
	Pick(n, step int) int
}

// RandomScheduler picks uniformly with a seeded generator.
type RandomScheduler struct{ rng *rand.Rand }

// NewRandomScheduler returns a seeded random scheduler.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (s *RandomScheduler) Pick(n, _ int) int { return s.rng.Intn(n) }

// FirstScheduler always picks the first enabled transition (deterministic,
// depth-first flavour).
type FirstScheduler struct{}

// Pick implements Scheduler.
func (FirstScheduler) Pick(int, int) int { return 0 }

// Event is one fired transition.
type Event struct {
	// Step is the 0-based index of the transition in the run.
	Step int
	// Act is the fired label (an output or τ).
	Act actions.Act
}

// String renders "3: a!(b)".
func (e Event) String() string { return fmt.Sprintf("%d: %s", e.Step, e.Act) }

// Options configures a run.
type Options struct {
	// MaxSteps bounds the run length (default 1000).
	MaxSteps int
	// Scheduler resolves nondeterminism (default FirstScheduler).
	Scheduler Scheduler
	// StopOnBarb, when non-empty, stops the run as soon as an output on one
	// of these channels fires.
	StopOnBarb []names.Name
	// KeepTrace records every event (default: only outputs on StopOnBarb
	// and the step count are reported).
	KeepTrace bool
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 1000
	}
	return o.MaxSteps
}

func (o Options) scheduler() Scheduler {
	if o.Scheduler == nil {
		return FirstScheduler{}
	}
	return o.Scheduler
}

// Result reports a run.
type Result struct {
	// Steps is the number of transitions fired.
	Steps int
	// Quiescent reports that the run ended because no autonomous transition
	// was enabled.
	Quiescent bool
	// Stopped reports that a StopOnBarb channel fired.
	Stopped bool
	// StopEvent is the event that triggered the stop (valid when Stopped).
	StopEvent Event
	// Trace holds all events when Options.KeepTrace is set.
	Trace []Event
	// Final is the final process state.
	Final syntax.Proc
}

// Run executes p under the options until quiescence, the step bound, or a
// stop barb.
func Run(sys *semantics.System, p syntax.Proc, opt Options) (Result, error) {
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	stop := names.NewSet(opt.StopOnBarb...)
	sched := opt.scheduler()
	res := Result{Final: p}
	cur := p
	for res.Steps < opt.maxSteps() {
		ts, err := sys.Steps(cur)
		if err != nil {
			return res, err
		}
		var auto []semantics.Trans
		for _, t := range ts {
			if t.Act.IsStep() {
				auto = append(auto, t)
			}
		}
		if len(auto) == 0 {
			res.Quiescent = true
			break
		}
		pick := sched.Pick(len(auto), res.Steps)
		if pick < 0 || pick >= len(auto) {
			return res, fmt.Errorf("machine: scheduler picked %d of %d", pick, len(auto))
		}
		chosen := auto[pick]
		ev := Event{Step: res.Steps, Act: chosen.Act}
		if opt.KeepTrace {
			res.Trace = append(res.Trace, ev)
		}
		cur = syntax.Simplify(chosen.Target)
		res.Steps++
		res.Final = cur
		if chosen.Act.IsOutput() && stop.Contains(chosen.Act.Subj) {
			res.Stopped = true
			res.StopEvent = ev
			return res, nil
		}
	}
	res.Final = cur
	return res, nil
}

// CanReachBarb explores the autonomous transition graph exhaustively
// (breadth-first, bounded by maxStates) and reports whether any reachable
// state emits on the watch channel. Unlike Run, this is scheduler-
// independent: it answers "is detection possible at all?".
// It is CanReachBarbAvoiding with no poisoned channel.
func CanReachBarb(sys *semantics.System, p syntax.Proc, watch names.Name, maxStates int) (bool, error) {
	return CanReachBarbAvoiding(sys, p, watch, nil, maxStates)
}

// CanReachBarbAvoiding reports whether some autonomous execution reaches a
// state offering an output on watch without ever passing through a state
// that offers an output on an avoid channel (a *poisoned* state — merely
// declining to fire the poison output does not launder the path). Used for
// guess-and-verify encodings (e.g. the counter-machine simulation), where a
// dishonest guess leaves a pending poison output: validity means "the goal
// is reachable on an honest path".
func CanReachBarbAvoiding(sys *semantics.System, p syntax.Proc, watch names.Name,
	avoid names.Set, maxStates int) (bool, error) {
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	if maxStates <= 0 {
		maxStates = 8192
	}
	seen := map[string]bool{}
	queue := []syntax.Proc{p}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		k := syntax.Key(syntax.Simplify(cur))
		if seen[k] {
			continue
		}
		if len(seen) >= maxStates {
			return false, fmt.Errorf("machine: state budget %d exhausted", maxStates)
		}
		seen[k] = true
		ts, err := sys.Steps(cur)
		if err != nil {
			return false, err
		}
		poisoned := false
		for _, t := range ts {
			if t.Act.IsOutput() && avoid.Contains(t.Act.Subj) {
				poisoned = true
				break
			}
		}
		if poisoned {
			continue // the whole state is off-limits
		}
		for _, t := range ts {
			if !t.Act.IsStep() {
				continue
			}
			if t.Act.IsOutput() && t.Act.Subj == watch {
				return true, nil
			}
			queue = append(queue, t.Target)
		}
	}
	return false, nil
}

// AlwaysReachesBarb checks the *inevitability* of a barb: every maximal
// autonomous execution eventually fires an output on watch. A run can avoid
// the barb exactly when the subgraph of non-watch autonomous edges contains,
// reachably from p, either a dead end with no watch edge (a quiescent state
// that never offered the barb) or a cycle (an infinite execution postponing
// it forever). Both are detected by an explicit DFS over that subgraph; the
// counterexample state is returned on failure.
func AlwaysReachesBarb(sys *semantics.System, p syntax.Proc, watch names.Name, maxStates int) (bool, syntax.Proc, error) {
	if sys == nil {
		sys = semantics.NewSystem(nil)
	}
	if maxStates <= 0 {
		maxStates = 8192
	}
	type node struct {
		proc     syntax.Proc
		avoid    []string // keys of non-watch successors
		hasWatch bool
	}
	nodes := map[string]*node{}
	var build func(q syntax.Proc) (string, error)
	build = func(q syntax.Proc) (string, error) {
		q = syntax.Simplify(q)
		k := syntax.Key(q)
		if _, ok := nodes[k]; ok {
			return k, nil
		}
		if len(nodes) >= maxStates {
			return "", fmt.Errorf("machine: state budget %d exhausted", maxStates)
		}
		n := &node{proc: q}
		nodes[k] = n
		ts, err := sys.Steps(q)
		if err != nil {
			return "", err
		}
		for _, t := range ts {
			if !t.Act.IsStep() {
				continue
			}
			if t.Act.IsOutput() && t.Act.Subj == watch {
				n.hasWatch = true
				continue
			}
			sk, err := build(t.Target)
			if err != nil {
				return "", err
			}
			n.avoid = append(n.avoid, sk)
		}
		return k, nil
	}
	root, err := build(p)
	if err != nil {
		return false, nil, err
	}
	// DFS over the avoidance subgraph: grey = on stack (cycle), dead end
	// without watch = quiescent failure.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var witness syntax.Proc
	var visit func(k string) bool // true = avoidance possible
	visit = func(k string) bool {
		switch color[k] {
		case grey:
			witness = nodes[k].proc
			return true // cycle: postpone forever
		case black:
			return false
		}
		color[k] = grey
		n := nodes[k]
		if len(n.avoid) == 0 && !n.hasWatch {
			witness = n.proc
			color[k] = black
			return true // quiescent without the barb
		}
		for _, sk := range n.avoid {
			if visit(sk) {
				color[k] = black
				return true
			}
		}
		color[k] = black
		return false
	}
	if visit(root) {
		return false, witness, nil
	}
	return true, nil, nil
}

// RunMany executes n independent runs with distinct seeded random
// schedulers on a bounded worker pool, returning every result. It is the
// Monte-Carlo harness used by the example experiments.
func RunMany(sys *semantics.System, p syntax.Proc, n int, baseSeed int64, opt Options, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			o := opt
			o.Scheduler = NewRandomScheduler(baseSeed + int64(i))
			results[i], errs[i] = Run(sys, p, o)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Stats summarises a batch of results.
type Stats struct {
	Runs       int
	Stopped    int
	Quiescent  int
	TotalSteps int
}

// Summarise aggregates results.
func Summarise(rs []Result) Stats {
	st := Stats{Runs: len(rs)}
	for _, r := range rs {
		if r.Stopped {
			st.Stopped++
		}
		if r.Quiescent {
			st.Quiescent++
		}
		st.TotalSteps += r.Steps
	}
	return st
}

// String renders the summary.
func (s Stats) String() string {
	avg := 0.0
	if s.Runs > 0 {
		avg = float64(s.TotalSteps) / float64(s.Runs)
	}
	return fmt.Sprintf("runs=%d stopped=%d quiescent=%d avg-steps=%.1f", s.Runs, s.Stopped, s.Quiescent, avg)
}
