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
// verdict cache amortises repeated queries across processes; verdicts are
// identical to the local checker's.
//
// The exit status is 0 when the verdicts were printed (related or not), 1
// when a term, the program file, the daemon or the certificate output
// fails, and 2 on a usage error.
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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/obs"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// options are the parsed command line.
type options struct {
	file, rel, server, traceOut, certOut string
	weak, counters                       bool
	timeout                              time.Duration
	p, q                                 string // the two term arguments
}

// run is the whole command and returns its exit status. bpibisim reads no
// input, so stdin goes unused.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpibisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.file, "f", "", "program file with definitions")
	fs.StringVar(&o.rel, "rel", "all", "relation: "+strings.Join(cert.Relations, ", ")+", all")
	fs.BoolVar(&o.weak, "weak", false, "use the weak relation")
	fs.StringVar(&o.server, "server", "", "delegate to a running bpid daemon at this base URL")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-query deadline (with -server)")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON file of the local engine run")
	fs.BoolVar(&o.counters, "counters", false, "print engine counters to stderr after the verdicts")
	fs.StringVar(&o.certOut, "cert", "", "write the verdict's replayable certificate as JSON (single -rel only; check with bpicert verify)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bpibisim [-f file] [-rel R] [-weak] [-server URL] term1 term2")
		return 2
	}
	o.p, o.q = fs.Arg(0), fs.Arg(1)
	if err := decide(o, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "bpibisim:", err)
		return 1
	}
	return 0
}

// decide prints the verdicts the options ask for, locally or from the
// daemon at o.server.
func decide(o options, stdout, stderr io.Writer) error {
	var env syntax.Env
	if o.file != "" {
		src, err := os.ReadFile(o.file)
		if err != nil {
			return err
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			return err
		}
		env = prog.Env
	}
	p, err := parser.Parse(o.p)
	if err != nil {
		return err
	}
	q, err := parser.Parse(o.q)
	if err != nil {
		return err
	}

	show := func(rel string, related bool, detail string) {
		if rel == cert.RelOneStep {
			rel = "one-step"
		}
		answer := "NOT related"
		if related {
			answer = "related"
		}
		fmt.Fprintf(stdout, "%-12s %s", rel, answer)
		if detail != "" {
			fmt.Fprintf(stdout, "   (%s)", detail)
		}
		fmt.Fprintln(stdout)
	}
	mode := "strong"
	if o.weak {
		mode = "weak"
	}
	fmt.Fprintf(stdout, "p = %s\nq = %s\nmode = %s\n", syntax.String(p), syntax.String(q), mode)

	rels := []string{o.rel}
	if o.rel == "all" {
		rels = cert.Relations
	}
	if o.certOut != "" && len(rels) != 1 {
		return fmt.Errorf("-cert needs a single relation (use -rel %s)", strings.Join(cert.Relations, "|"))
	}
	writeCert := func(crt *cert.Certificate) error {
		if o.certOut == "" {
			return nil
		}
		if crt == nil {
			return fmt.Errorf("no certificate was recorded")
		}
		data, err := crt.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.certOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "certificate: %d bytes written to %s\n", len(data), o.certOut)
		return nil
	}
	if o.server != "" {
		if o.file != "" {
			return fmt.Errorf("-f and -server are exclusive: the daemon fixes its definitions at startup")
		}
		if o.traceOut != "" || o.counters {
			return fmt.Errorf("-trace/-counters are local-only; a daemon-served run's evidence is on the daemon (/trace/{id}, /metrics)")
		}
		cl := bpi.NewClient(o.server)
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
		for _, r := range rels {
			resp, err := cl.Equiv(ctx, bpi.EquivRequest{
				P: o.p, Q: o.q, Rel: r, Weak: o.weak,
				TimeoutMs: int(o.timeout.Milliseconds()), Cert: o.certOut != "",
			})
			if err != nil {
				return err
			}
			detail := resp.Reason
			if resp.Cached {
				detail = "cached daemon verdict"
			}
			show(r, resp.Related, detail)
			if err := writeCert(resp.Certificate); err != nil {
				return err
			}
		}
		return nil
	}
	ch := equiv.NewChecker(semantics.NewSystem(env))
	ch.Certify = o.certOut != ""
	var tr *obs.Tracer
	if o.traceOut != "" || o.counters {
		tr = obs.New()
		ch.Obs = tr
		ch.Store().SetObs(tr)
	}
	for _, r := range rels {
		res, err := ch.Decide(context.Background(), equiv.Query{Rel: r, Weak: o.weak, P: p, Q: q})
		if err != nil {
			return err
		}
		detail := res.Reason
		if r == cert.RelCongruence {
			detail = "closure under all fusions of the free names"
		}
		show(r, res.Related, detail)
		if err := writeCert(res.Cert); err != nil {
			return err
		}
	}
	if o.traceOut != "" {
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "trace: %d spans written to %s\n", len(tr.Events()), o.traceOut)
	}
	if o.counters {
		fmt.Fprint(stderr, obs.FormatCounters(tr.Counters()))
	}
	return nil
}
