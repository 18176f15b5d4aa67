// Command bpibisim decides the behavioural equivalences of the paper
// between two terms.
//
// Usage:
//
//	bpibisim [-f file] [-rel labelled|barbed|step|onestep|congruence|all]
//	         [-weak] [-server URL] [-trace out.json] [-counters]
//	         [-cert out.json] "term1" "term2"
//
// With -server the query is delegated to a running bpid daemon, whose
// shared store and verdict cache amortise repeated queries across
// processes; verdicts are identical to the local checker's.
//
// With -trace the local engine's span timeline is written as Chrome
// trace-event JSON (open in chrome://tracing or ui.perfetto.dev); with
// -counters the engine counters are printed to stderr after the
// verdicts. Both are local-only: a daemon-served query's evidence lives
// on the daemon (/trace/{id}, /metrics, /debug/pprof).
//
// With -cert (single -rel only) the verdict's replayable certificate is
// written as JSON — works both locally and against a daemon — and can be
// checked independently with `bpicert verify`.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/obs"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func main() {
	file := flag.String("f", "", "program file with definitions")
	rel := flag.String("rel", "all", "relation: labelled, barbed, step, onestep, congruence, all")
	weak := flag.Bool("weak", false, "use the weak relation")
	server := flag.String("server", "", "delegate to a running bpid daemon at this base URL")
	timeout := flag.Duration("timeout", 30*time.Second, "per-query deadline (with -server)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON file of the local engine run")
	counters := flag.Bool("counters", false, "print engine counters to stderr after the verdicts")
	certOut := flag.String("cert", "", "write the verdict's replayable certificate as JSON (single -rel only; check with bpicert verify)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bpibisim [-f file] [-rel R] [-weak] [-server URL] term1 term2")
		os.Exit(2)
	}
	var env syntax.Env
	if *file != "" {
		src, err := os.ReadFile(*file)
		fail(err)
		prog, err := parser.ParseProgram(string(src))
		fail(err)
		env = prog.Env
	}
	p, err := parser.Parse(flag.Arg(0))
	fail(err)
	q, err := parser.Parse(flag.Arg(1))
	fail(err)

	show := func(name string, related bool, detail string) {
		verdict := "NOT related"
		if related {
			verdict = "related"
		}
		fmt.Printf("%-12s %s", name, verdict)
		if detail != "" {
			fmt.Printf("   (%s)", detail)
		}
		fmt.Println()
	}
	mode := "strong"
	if *weak {
		mode = "weak"
	}
	fmt.Printf("p = %s\nq = %s\nmode = %s\n", syntax.String(p), syntax.String(q), mode)

	want := map[string]bool{}
	if *rel == "all" {
		for _, r := range []string{"labelled", "barbed", "step", "onestep", "congruence"} {
			want[r] = true
		}
	} else {
		want[*rel] = true
	}
	if *certOut != "" && len(want) != 1 {
		fail(fmt.Errorf("-cert needs a single relation (use -rel labelled|barbed|step|onestep|congruence)"))
	}
	writeCert := func(crt *cert.Certificate) {
		if *certOut == "" {
			return
		}
		if crt == nil {
			fail(fmt.Errorf("no certificate was recorded"))
		}
		data, err := crt.Marshal()
		fail(err)
		fail(os.WriteFile(*certOut, data, 0o644))
		fmt.Fprintf(os.Stderr, "certificate: %d bytes written to %s\n", len(data), *certOut)
	}
	if *server != "" {
		if *file != "" {
			fail(fmt.Errorf("-f and -server are exclusive: the daemon fixes its definitions at startup"))
		}
		if *traceOut != "" || *counters {
			fail(fmt.Errorf("-trace/-counters are local-only; a daemon-served run's evidence is on the daemon (/trace/{id}, /metrics)"))
		}
		cl := bpi.NewClient(*server)
		ctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		for _, r := range []string{"labelled", "barbed", "step", "onestep", "congruence"} {
			if !want[r] {
				continue
			}
			resp, err := cl.Equiv(ctx, bpi.EquivRequest{
				P: flag.Arg(0), Q: flag.Arg(1), Rel: r, Weak: *weak,
				TimeoutMs: int(timeout.Milliseconds()), Cert: *certOut != "",
			})
			fail(err)
			detail := resp.Reason
			if resp.Cached {
				detail = "cached daemon verdict"
			}
			show(r, resp.Related, detail)
			writeCert(resp.Certificate)
		}
		return
	}
	ch := equiv.NewChecker(semantics.NewSystem(env))
	ch.Certify = *certOut != ""
	var tr *obs.Tracer
	if *traceOut != "" || *counters {
		tr = obs.New()
		ch.Obs = tr
		ch.Store().SetObs(tr)
	}
	if want["labelled"] {
		r, err := ch.Labelled(p, q, *weak)
		fail(err)
		show("labelled", r.Related, r.Reason)
		writeCert(r.Cert)
	}
	if want["barbed"] {
		r, err := ch.Barbed(p, q, *weak)
		fail(err)
		show("barbed", r.Related, r.Reason)
		writeCert(r.Cert)
	}
	if want["step"] {
		r, err := ch.Step(p, q, *weak)
		fail(err)
		show("step", r.Related, r.Reason)
		writeCert(r.Cert)
	}
	if want["onestep"] {
		if ch.Certify {
			crt, ok, err := ch.OneStepCert(p, q, *weak)
			fail(err)
			show("one-step", ok, "")
			writeCert(crt)
		} else {
			ok, err := ch.OneStep(p, q, *weak)
			fail(err)
			show("one-step", ok, "")
		}
	}
	if want["congruence"] {
		if ch.Certify {
			crt, ok, err := ch.CongruenceCert(p, q, *weak)
			fail(err)
			show("congruence", ok, "closure under all fusions of the free names")
			writeCert(crt)
		} else {
			ok, err := ch.Congruence(p, q, *weak)
			fail(err)
			show("congruence", ok, "closure under all fusions of the free names")
		}
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		fail(err)
		fail(tr.WriteChromeTrace(f))
		fail(f.Close())
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", len(tr.Events()), *traceOut)
	}
	if *counters {
		fmt.Fprint(os.Stderr, obs.FormatCounters(tr.Counters()))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpibisim:", err)
		os.Exit(1)
	}
}
