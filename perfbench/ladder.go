package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bpi/internal/lts"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
	"bpi/perfbench/stats"
	"bpi/perfbench/wire"
)

const (
	// ladderPass is the nominal time of one ladder pass on the reference
	// host.
	ladderPass = 3 * time.Second
	// ladderMaxPasses bounds the timed passes of a run, extra passes
	// included, so a run on a busy host still ends in time.
	ladderMaxPasses = 12
	// ladderLaunches is how many times setup is measured: the child is
	// started this many times over the run and setup_s is the median
	// exec-to-ready time. A launch costs a few milliseconds.
	ladderLaunches = 31
)

// ladderProc is a running ladder child and its command pipe.
type ladderProc struct {
	c   *child
	in  io.WriteCloser
	out *bufio.Scanner
}

// startLadder execs the child and waits for it to report that every rung
// has been parsed, returning the exec-to-ready time.
func startLadder(r *run, rungsPath string) (*ladderProc, float64, error) {
	cmd := exec.Command(filepath.Join(r.bin, "ladderchild"), rungsPath)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	c, err := startChild(cmd)
	if err != nil {
		return nil, 0, err
	}
	lp := &ladderProc{c: c, in: in, out: bufio.NewScanner(stdout)}
	lp.out.Buffer(make([]byte, 0, 1<<20), 256<<20)
	rep, err := lp.read()
	setup := time.Since(t0).Seconds()
	if err != nil || !rep.Ready {
		lp.quit()
		return nil, 0, fmt.Errorf("ladder child not ready: %v", err)
	}
	return lp, setup, nil
}

func (lp *ladderProc) read() (wire.Reply, error) {
	var rep wire.Reply
	if !lp.out.Scan() {
		if err := lp.out.Err(); err != nil {
			return rep, err
		}
		return rep, io.ErrUnexpectedEOF
	}
	if err := json.Unmarshal(lp.out.Bytes(), &rep); err != nil {
		return rep, err
	}
	if rep.Err != "" {
		return rep, fmt.Errorf("ladder child: %s", rep.Err)
	}
	return rep, nil
}

func (lp *ladderProc) call(cmd string) (wire.Reply, error) {
	if _, err := io.WriteString(lp.in, cmd+"\n"); err != nil {
		return wire.Reply{}, err
	}
	return lp.read()
}

func (lp *ladderProc) quit() {
	_, _ = io.WriteString(lp.in, "quit\n") // the child may already be gone
	lp.in.Close()
	select {
	case <-lp.c.exited:
	case <-time.After(10 * time.Second):
		_ = lp.c.stop(syscall.SIGKILL, 0)
	}
}

// runLadder measures cold, one-at-a-time decisions of the five large rungs.
func runLadder(r *run) error {
	rungs := ladderRungs(r.seed)
	data, err := json.Marshal(rungs)
	if err != nil {
		return err
	}
	path := filepath.Join(r.dir, "rungs.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}

	lp, first, err := startLadder(r, path)
	if err != nil {
		return err
	}
	defer lp.quit()
	pid := lp.c.pid()
	setups := []float64{first}
	probe := func() error {
		p, s, err := startLadder(r, path)
		if err != nil {
			return err
		}
		p.quit()
		setups = append(setups, s)
		return nil
	}

	var rs runtimeStats
	n := r.passCount(ladderPass, ladderMaxPasses)
	ps, err := r.runPasses(n, ladderLaunches-1, probe, func(k int) (passSample, string, error) {
		rt0, err := lp.call("runtime")
		if err != nil {
			return passSample{}, "", err
		}
		var rep wire.Reply
		s, err := timePass(pid, func() (err error) {
			rep, err = lp.call("pass")
			return err
		})
		if err != nil {
			return passSample{}, "", err
		}
		rt1, err := lp.call("runtime")
		if err != nil {
			return passSample{}, "", err
		}
		r.checkRungs(rungs, rep.Rungs)
		a, b := rt0.Runtime, rt1.Runtime
		rs.add(b.AllocBytes-a.AllocBytes, b.AllocObjects-a.AllocObjects, b.GCCycles-a.GCCycles,
			ratio(b.GCCPU-a.GCCPU, b.TotalCPU-a.TotalCPU))
		if k == 1 {
			fmt.Printf("ladder  program gomaxprocs=%d go=%s\n", b.GOMAXPROCS, b.GoVersion)
		}
		return s, rungSummary(rep.Rungs), nil
	})
	if err != nil {
		return err
	}
	r.setE2E("setup_s", stats.Median(setups), "s")
	fmt.Printf("ladder  setup launches=%d median_s=%.6f\n", len(setups), stats.Median(setups))
	rs.set(r)
	if !r.traced {
		return nil
	}
	return r.traceLadder(lp, rungs, ps.wall(n))
}

// checkRungs compares each rung's verdict and pair count with its pinned
// answer. An engine error counts as a failed operation.
func (r *run) checkRungs(want []wire.Rung, got []wire.RungResult) {
	r.attempted += len(want)
	if len(got) != len(want) {
		r.mismatch("ladder pass returned %d rungs, want %d", len(got), len(want))
		return
	}
	for i, w := range want {
		g := got[i]
		switch {
		case g.Err != "":
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: rung %s: %s\n", w.Name, g.Err)
		case g.Related != w.Want || g.Pairs != w.Pairs:
			r.mismatch("rung %s: related=%v pairs=%d, want related=%v pairs=%d", w.Name, g.Related, g.Pairs, w.Want, w.Pairs)
		}
	}
}

func rungSummary(rs []wire.RungResult) string {
	var b strings.Builder
	for _, x := range rs {
		fmt.Fprintf(&b, "%s=%.0fms ", x.Name, x.Ms)
	}
	return strings.TrimSpace(b.String())
}

// traceLadder runs one traced pass (obs tracer on every checker, CPU
// profile of the decisions, certificate replay afterwards) and the layer
// timings, and fills the per-layer metrics.
func (r *run) traceLadder(lp *ladderProc, rungs []wire.Rung, untracedPass float64) error {
	prof := strings.TrimSuffix(r.traceOut, ".json") + ".pprof"
	if err := os.MkdirAll(filepath.Dir(prof), 0o755); err != nil {
		return err
	}
	rep, err := lp.call("trace " + prof)
	if err != nil {
		return err
	}
	traced := rep.PassMs / 1e3
	r.checkRungs(rungs, rep.Rungs)
	r.spans.add(1, toSpans(rep.Spans))
	r.spans.add(2, toSpans(rep.ObsSpans))

	var decide, pairs, terms, ih, im, dh, dm, verifyMs, certBytes float64
	for _, x := range rep.Rungs {
		decide += x.Ms / 1e3
		pairs += float64(x.Pairs)
		terms += float64(x.StoreTerms)
		ih, im = ih+float64(x.InternHits), im+float64(x.InternMisses)
		dh, dm = dh+float64(x.DerivHits), dm+float64(x.DerivMisses)
		verifyMs += x.VerifyMs
		certBytes += float64(x.CertBytes)
		if x.VerifyErr != "" {
			r.mismatch("rung %s: certificate rejected by cert.Verify: %s", x.Name, x.VerifyErr)
		}
	}
	n := float64(len(rep.Rungs))
	r.setLayer("equiv.decide_s", decide, "s")
	r.setLayer("equiv.pairs", pairs, "count")
	r.setLayer("equiv.store_terms", terms, "count")
	r.setLayer("equiv.intern_hit_ratio", ratio(ih, ih+im), "1")
	r.setLayer("equiv.deriv_hit_ratio", ratio(dh, dh+dm), "1")
	r.setLayer("cert.verify_ms", ratio(verifyMs, n), "ms")
	r.setLayer("cert.bytes", ratio(certBytes, n), "B")
	r.setLayer("obs.overhead_frac", traced/untracedPass-1, "1")

	if err := r.setProfile(prof); err != nil {
		return err
	}
	srcs, states, err := ladderTerms(rungs)
	if err != nil {
		return err
	}
	if err := r.termLayers(srcs, states); err != nil {
		return err
	}
	counters := map[string]float64{}
	for k, v := range rep.ObsCounters {
		counters[k] = float64(v)
	}
	return r.spans.write(r.traceOut, counters)
}

// ladderParseReps repeats the rung sources for the parse timing, so the
// mean is taken over 100 calls rather than the ten sources.
const ladderParseReps = 10

// ladderTerms returns the layer inputs of the ladder: its rung sources, and
// every reachable state of each rung's first term (the autonomous graph for
// step and barbed rungs, the full graph with input instantiation for
// labelled ones).
func ladderTerms(rungs []wire.Rung) ([]string, []syntax.Proc, error) {
	var srcs []string
	for k := 0; k < ladderParseReps; k++ {
		for _, g := range rungs {
			srcs = append(srcs, g.P, g.Q)
		}
	}
	sys := semantics.NewSystem(nil)
	var states []syntax.Proc
	for _, g := range rungs {
		p, err := parser.Parse(g.P)
		if err != nil {
			return nil, nil, fmt.Errorf("rung %s: %w", g.Name, err)
		}
		lg, err := lts.Explore(sys, []syntax.Proc{p}, lts.Options{AutonomousOnly: g.Rel != "labelled", MaxStates: 1 << 18})
		if err != nil {
			return nil, nil, fmt.Errorf("rung %s: %w", g.Name, err)
		}
		for _, s := range lg.States {
			states = append(states, s.Proc)
		}
	}
	return srcs, states, nil
}

// setProfile charges the CPU profile in file to modules (the prof.*
// metrics).
func (r *run) setProfile(file string) error {
	p, err := readProfile(file)
	if err != nil {
		return err
	}
	shares := p.attribute()
	other := 1.0
	for _, m := range profModules {
		r.setLayer("prof."+m+"_frac", shares[m], "1")
		other -= shares[m]
	}
	r.setLayer("prof.other_frac", other, "1")
	fmt.Printf("%-7s profile samples=%d %s\n", r.workload, len(p.stacks), joinKV(shares))
	return nil
}

func toSpans(ws []wire.Span) []span {
	out := make([]span, len(ws))
	for i, w := range ws {
		out[i] = span{Name: w.Name, ID: w.ID, Parent: w.Parent, Req: w.Req, Start: w.Start, Dur: w.Dur, Args: w.Args}
	}
	return out
}
