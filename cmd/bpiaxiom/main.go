// Command bpiaxiom exercises the Section 5 axiomatisation: it computes head
// normal forms, applies the expansion law, and decides A ⊢ p = q for finite
// processes.
//
// Usage:
//
//	bpiaxiom [-server URL] hnf "term"     head normal form on fn(term)
//	bpiaxiom [-server URL] expand "p" "q" the expansion of p ‖ q (Table 8)
//	bpiaxiom [-server URL] decide "p" "q" A ⊢ p = q  (⇔ p ~c q, Theorems 6/7)
//	bpiaxiom list                         the axiom catalogue
//
// With -server, decide is delegated to a running bpid daemon (hnf, expand
// and list always run locally).
//
// The exit status is 0 when the answer was printed (for decide, provable or
// not), 1 when a term does not parse or lies outside what the subcommand
// covers (a recursive term, or for expand an operand that is not a sum of
// prefixes), the daemon fails or an output cannot be written, and 2 on a
// usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	bpi "bpi"
	"bpi/internal/axioms"
	"bpi/internal/obs"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed flags that decide reads.
type options struct {
	server, traceOut, certOut string
	counters, verbose         bool
	timeout                   time.Duration
}

// run is the whole command and returns its exit status.
func run(args []string, stdout, stderr io.Writer) int {
	usage := func() { fmt.Fprint(stderr, usageText) }
	fs := flag.NewFlagSet("bpiaxiom", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = usage
	var o options
	fs.StringVar(&o.server, "server", "", "delegate decide to a running bpid daemon at this base URL")
	fs.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-query deadline (with -server)")
	fs.StringVar(&o.traceOut, "trace", "", "write a Chrome trace-event JSON file of the local decide run")
	fs.BoolVar(&o.counters, "counters", false, "print prover counters to stderr after decide")
	fs.StringVar(&o.certOut, "cert", "", "write decide's replayable proof object as JSON (local only; check with bpicert verify)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		usage()
		return 2
	}
	cmd, operands := fs.Arg(0), fs.Args()[1:]
	if cmd == "decide" && len(operands) > 0 && operands[0] == "-v" {
		o.verbose, operands = true, operands[1:]
	}
	need := map[string]int{"hnf": 1, "expand": 2, "decide": 2, "list": 0}
	n, known := need[cmd]
	if !known || len(operands) < n {
		usage()
		return 2
	}
	var err error
	switch cmd {
	case "hnf":
		err = hnf(operands[0], stdout)
	case "expand":
		err = expand(operands[0], operands[1], stdout)
	case "decide":
		err = decide(o, operands[0], operands[1], stdout, stderr)
	case "list":
		for _, ax := range axioms.Catalogue() {
			fmt.Fprintf(stdout, "  (%s) %s\n", ax.Table, ax.Name)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bpiaxiom:", err)
		return 1
	}
	return 0
}

// hnf prints the head normal form of src on its free names.
func hnf(src string, stdout io.Writer) error {
	p, err := parser.Parse(src)
	if err != nil {
		return err
	}
	h, err := axioms.ComputeHNF(semantics.NewSystem(nil), p, syntax.FreeNames(p))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "hnf of %s on V=%v:\n", syntax.String(p), h.V)
	for i, w := range h.Worlds {
		if len(h.ByWorld[i]) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  world %s:\n", w)
		for _, s := range h.ByWorld[i] {
			fmt.Fprintf(stdout, "    %s\n", s)
		}
	}
	fmt.Fprintf(stdout, "as a term: %s\n", syntax.String(h.ToProc()))
	return nil
}

// expand prints one application of the expansion law to p ‖ q.
func expand(psrc, qsrc string, stdout io.Writer) error {
	p, err := parser.Parse(psrc)
	if err != nil {
		return err
	}
	q, err := parser.Parse(qsrc)
	if err != nil {
		return err
	}
	e, ok := axioms.Expand(p, q)
	if !ok {
		return fmt.Errorf("an operand is not a sum of prefixes (normalise it first)")
	}
	fmt.Fprintln(stdout, syntax.String(e))
	return nil
}

// decide prints whether A ⊢ p = q, locally or from the daemon at o.server.
func decide(o options, psrc, qsrc string, stdout, stderr io.Writer) error {
	p, err := parser.Parse(psrc)
	if err != nil {
		return err
	}
	q, err := parser.Parse(qsrc)
	if err != nil {
		return err
	}
	var ok bool
	var lines []string
	if o.server != "" {
		if o.traceOut != "" || o.counters || o.certOut != "" {
			return fmt.Errorf("-trace/-counters/-cert are local-only; a daemon-served run's evidence is on the daemon (/trace/{id}, /metrics)")
		}
		ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
		defer cancel()
		resp, err := bpi.NewClient(o.server).Prove(ctx, bpi.ProveRequest{
			P: syntax.String(p), Q: syntax.String(q), Trace: o.verbose,
			TimeoutMs: int(o.timeout.Milliseconds()),
		})
		if err != nil {
			return err
		}
		ok, lines = resp.Proved, resp.Trace
	} else {
		pr := axioms.NewProver(nil)
		pr.Tracing = o.verbose
		pr.Certify = o.certOut != ""
		var tr *obs.Tracer
		if o.traceOut != "" || o.counters {
			tr = obs.New()
			pr.Obs = tr
		}
		if ok, err = pr.Decide(p, q); err != nil {
			return err
		}
		if err := writeEvidence(o, pr, tr, stderr); err != nil {
			return err
		}
		lines = pr.TraceLines()
	}
	for _, line := range lines {
		fmt.Fprintln(stdout, " ", line)
	}
	if ok {
		fmt.Fprintf(stdout, "A ⊢ %s = %s\n", syntax.String(p), syntax.String(q))
	} else {
		fmt.Fprintf(stdout, "not provable (hence not strongly congruent):\n  %s ≠ %s\n",
			syntax.String(p), syntax.String(q))
	}
	return nil
}

// writeEvidence writes what -cert, -trace and -counters ask for of a local
// decide run.
func writeEvidence(o options, pr *axioms.Prover, tr *obs.Tracer, stderr io.Writer) error {
	if o.certOut != "" {
		crt := pr.Certificate()
		if crt == nil {
			return fmt.Errorf("no proof object was recorded")
		}
		data, err := crt.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.certOut, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "certificate: %d bytes written to %s\n", len(data), o.certOut)
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

const usageText = `bpiaxiom — the Section 5 axiomatisation

  bpiaxiom hnf "term"        head normal form (Definition 17)
  bpiaxiom expand "p" "q"    expansion of p ‖ q (Table 8)
  bpiaxiom decide [-v] "p" "q"   A ⊢ p = q (Theorems 6/7; -v traces the derivation)
  bpiaxiom list              the axiom catalogue

  -server URL     delegate decide to a running bpid daemon
  -timeout D      per-query deadline with -server (default 30s)
  -trace out.json write a Chrome trace-event file of a local decide
  -counters       print prover counters to stderr after a local decide
  -cert out.json  write decide's replayable proof object (bpicert verify)
`
