// Command ladderchild is the program process of the ladder workload: it
// decides the rungs it is given through the bpi facade, one query at a time,
// each on a fresh sequential certifying checker, the way bpibisim and
// `bpi protocols` users run them.
//
// Usage: ladderchild RUNGS.json
//
// It parses every rung from concrete syntax, prints {"ready":true}, then
// answers one JSON line per command read from standard input:
//
//	pass             decide every rung once
//	trace PROFILE    decide every rung with obs tracing and a CPU profile
//	                 written to PROFILE, then replay each certificate
//	runtime          report runtime/metrics counters
//	quit             exit
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"time"

	"bpi"
	"bpi/internal/cert"
	"bpi/internal/obs"

	"bpi/perfbench/wire"
)

// maxPairs is the raised pair budget protocols.NewChecker gives ladder
// queries.
const maxPairs = 1 << 20

type rung struct {
	wire.Rung
	p, q bpi.Proc
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ladderchild RUNGS.json")
		os.Exit(2)
	}
	data, err := os.ReadFile(os.Args[1])
	if err != nil {
		fail(err)
	}
	var specs []wire.Rung
	if err := json.Unmarshal(data, &specs); err != nil {
		fail(err)
	}
	rungs := make([]rung, len(specs))
	for i, s := range specs {
		rungs[i].Rung = s
		if rungs[i].p, err = bpi.Parse(s.P); err != nil {
			fail(fmt.Errorf("rung %s: %w", s.Name, err))
		}
		if rungs[i].q, err = bpi.Parse(s.Q); err != nil {
			fail(fmt.Errorf("rung %s: %w", s.Name, err))
		}
	}
	out := json.NewEncoder(os.Stdout)
	reply := func(r wire.Reply) {
		if err := out.Encode(r); err != nil {
			os.Exit(1) // the harness is gone
		}
	}
	reply(wire.Reply{Ready: true})

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		cmd, arg, _ := strings.Cut(strings.TrimSpace(in.Text()), " ")
		switch cmd {
		case "pass":
			reply(wire.Reply{Rungs: pass(rungs, nil, nil, nil)})
		case "trace":
			reply(tracedPass(rungs, arg))
		case "runtime":
			reply(wire.Reply{Runtime: readRuntime()})
		case "quit":
			return
		default:
			reply(wire.Reply{Err: "unknown command " + cmd})
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ladderchild:", err)
	os.Exit(1)
}

// pass decides every rung once. With a tracer, each query carries it as
// Checker.Obs and its store mirrors counters into it, the benchmark's own
// spans are appended to spans, and each rung's certificate is kept in certs.
func pass(rungs []rung, tr *obs.Tracer, spans *[]wire.Span, certs []*cert.Certificate) []wire.RungResult {
	out := make([]wire.RungResult, len(rungs))
	var nextID uint64
	for i, r := range rungs {
		req := uint64(i + 1)
		nextID++
		rungSpan := wire.Span{Name: "ladder.rung", ID: nextID, Req: req, Start: time.Now().UnixNano()}
		chk := bpi.NewChecker(nil)
		chk.MaxPairs = maxPairs
		chk.Certify = true
		if tr != nil {
			chk.Obs = tr
			chk.Store().SetObs(tr)
		}
		rr := wire.RungResult{Name: r.Name, Span: rungSpan.ID}
		t0 := time.Now()
		var res bpi.Result
		var err error
		switch r.Rel {
		case "step":
			res, err = chk.Step(r.p, r.q, r.Weak)
		case "barbed":
			res, err = chk.Barbed(r.p, r.q, r.Weak)
		case "labelled":
			res, err = chk.Labelled(r.p, r.q, r.Weak)
		default:
			err = fmt.Errorf("unknown relation %q", r.Rel)
		}
		d := time.Since(t0)
		rr.Related, rr.Pairs, rr.Ms = res.Related, res.Pairs, float64(d.Nanoseconds())/1e6
		if err != nil {
			rr.Err = err.Error()
		}
		if spans != nil {
			nextID++
			*spans = append(*spans, wire.Span{Name: "equiv.decide", ID: nextID, Parent: rungSpan.ID, Req: req,
				Start: t0.UnixNano(), Dur: d.Nanoseconds(),
				Args: map[string]any{"rel": r.Rel, "weak": r.Weak, "pairs": res.Pairs}})
			st := chk.Store().Stats()
			rr.StoreTerms, rr.InternHits, rr.InternMisses = st.Terms, st.InternHits, st.InternMisses
			rr.DerivHits, rr.DerivMisses = st.DerivationHits, st.DerivationMisses
			rungSpan.Dur = time.Now().UnixNano() - rungSpan.Start
			*spans = append(*spans, rungSpan)
			if certs != nil {
				certs[i] = res.Cert
			}
		}
		out[i] = rr
	}
	return out
}

// verifyCert marshals a certificate and replays it with the independent
// verifier, returning its size and the replay time.
func verifyCert(c *cert.Certificate) (int, float64, string) {
	data, err := c.Marshal()
	if err != nil {
		return 0, 0, err.Error()
	}
	t0 := time.Now()
	err = cert.Verify(c)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return len(data), ms, err.Error()
	}
	return len(data), ms, ""
}

// tracedPass is pass with tracing on and a CPU profile of the decisions
// only; certificate replay happens after the profile stops, outside the
// reported pass time.
func tracedPass(rungs []rung, profile string) wire.Reply {
	tr := obs.New()
	anchor := time.Now()
	f, err := os.Create(profile)
	if err != nil {
		return wire.Reply{Err: err.Error()}
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return wire.Reply{Err: err.Error()}
	}
	var spans []wire.Span
	certs := make([]*cert.Certificate, len(rungs))
	t0 := time.Now()
	res := pass(rungs, tr, &spans, certs)
	passMs := float64(time.Since(t0).Nanoseconds()) / 1e6
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return wire.Reply{Err: err.Error()}
	}
	for i, c := range certs {
		if c == nil {
			continue
		}
		vs := wire.Span{Name: "cert.verify", ID: uint64(1000 + i), Parent: res[i].Span, Req: uint64(i + 1),
			Start: time.Now().UnixNano()}
		res[i].CertBytes, res[i].VerifyMs, res[i].VerifyErr = verifyCert(c)
		vs.Dur = time.Now().UnixNano() - vs.Start
		spans = append(spans, vs)
	}
	var obsSpans []wire.Span
	for _, ev := range tr.Events() {
		obsSpans = append(obsSpans, wire.Span{Name: ev.Name, ID: ev.ID, Parent: ev.Parent,
			Start: anchor.Add(ev.Start).UnixNano(), Dur: ev.Dur.Nanoseconds()})
	}
	return wire.Reply{Rungs: res, PassMs: passMs, Spans: spans, ObsSpans: obsSpans, ObsCounters: tr.Counters()}
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() *wire.Runtime {
	metrics.Read(runtimeSamples)
	v := func(i int) float64 {
		s := runtimeSamples[i].Value
		switch s.Kind() {
		case metrics.KindUint64:
			return float64(s.Uint64())
		case metrics.KindFloat64:
			return s.Float64()
		}
		return 0
	}
	return &wire.Runtime{AllocBytes: v(0), AllocObjects: v(1), GCCycles: v(2), GCCPU: v(3), TotalCPU: v(4),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}
