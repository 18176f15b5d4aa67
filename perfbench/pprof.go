package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// profModules are the layers whose CPU shares are reported, besides other.
// A sample goes to the innermost bpi/internal/<module> frame on its stack; a
// stack with no such frame goes to runtime_gc when it is a GC background
// worker, to net when it runs in the net or net/http packages (connection
// handling before and after a handler), and to other otherwise. Modules not
// listed here (lts, actions, obs, …) are printed but reported as other.
var profModules = []string{
	"parser", "syntax", "names", "semantics", "equiv", "cert", "ledger",
	"service", "cluster", "net", "runtime_gc",
}

// cpuProfile is the part of a pprof profile the attribution needs: each
// sample's stack as function names, innermost first, and its CPU weight.
type cpuProfile struct {
	stacks  [][]string
	weights []float64
}

// readProfile lists the samples of the CPU profile in file with
// `go tool pprof -traces`, which ships with the toolchain that built the
// benchmark.
func readProfile(file string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-symbolize=none", file)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads pprof's -traces report: a header, then one block per
// sample after a dashed separator line. In a block, label lines put a colon
// in column 11; stack lines carry a right-aligned 10-column value (on the
// innermost frame only), three spaces and the function name, innermost
// first.
func parseTraces(txt []byte) (*cpuProfile, error) {
	p := &cpuProfile{}
	inSample := false
	sc := bufio.NewScanner(bytes.NewReader(txt))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			inSample = true
			continue
		}
		if !inSample || len(line) < 14 || line[10:13] != "   " {
			continue // header or label line
		}
		if v := strings.TrimSpace(line[:10]); v != "" { // a sample's innermost frame
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof -traces: sample value %q: %v", v, err)
			}
			p.stacks = append(p.stacks, nil)
			p.weights = append(p.weights, d.Seconds())
		}
		if i := len(p.stacks) - 1; i >= 0 {
			p.stacks[i] = append(p.stacks[i], strings.TrimSuffix(line[13:], " (inline)"))
		}
	}
	return p, sc.Err()
}

// attribute returns each module's share of the profile's CPU weight: one
// entry per bpi/internal module seen, plus net, runtime_gc and other.
func (p *cpuProfile) attribute() map[string]float64 {
	out := map[string]float64{}
	var total float64
	for i, stack := range p.stacks {
		total += p.weights[i]
		out[moduleOf(stack)] += p.weights[i]
	}
	for k, v := range out {
		out[k] = ratio(v, total)
	}
	return out
}

// moduleOf charges one stack (innermost frame first) to a module.
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "bpi/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			mod, _, _ = strings.Cut(mod, "/")
			return mod
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net.") {
			return "net"
		}
	}
	return "other"
}
