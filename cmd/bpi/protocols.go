package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"

	"bpi/internal/protocols"
	"bpi/internal/syntax"
)

// cmdProtocols lists and runs the broadcast-algorithm scenario library of
// internal/protocols. Without -run it prints the catalogue; with -run it
// decides the named scenario's conformance check, prints the verdict
// against the scenario's expectation, optionally writes the certificate
// (verify it with `bpicert verify`), and fails when the verdict deviates.
func cmdProtocols(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bpi protocols", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the scenario catalogue and exit")
	run := fs.String("run", "", "decide the named scenario (see -list)")
	certOut := fs.String("cert", "", "write the verdict's certificate JSON to this file")
	terms := fs.Bool("terms", false, "with -run, print the implementation and spec terms")
	if err := parse(fs, args); err != nil {
		return err
	}

	if *run == "" || *list {
		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tALGO\tRELATION\tFAULT\tEXPECT\tSTATES")
		for _, s := range protocols.Catalogue() {
			rel := s.Rel
			if s.Weak {
				rel = "weak " + rel
			}
			expect := "equivalent"
			if !s.WantEquiv {
				expect = "distinguished"
			}
			states := "-"
			if s.States > 0 {
				states = fmt.Sprint(s.States)
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
				s.Name, s.Algo, rel, s.Fault, expect, states)
		}
		return w.Flush()
	}

	s, ok := protocols.ByName(*run)
	if !ok {
		return fmt.Errorf("unknown scenario %q (bpi protocols -list)", *run)
	}
	return decideScenario(s, *terms, *certOut, stdout)
}

// decideScenario decides s's conformance check and prints the verdict,
// with the scenario's terms when terms is set, writing the certificate to
// certOut when it is not empty. It fails when the verdict deviates from
// the scenario's expectation.
func decideScenario(s protocols.Scenario, terms bool, certOut string, stdout io.Writer) error {
	if terms {
		fmt.Fprintf(stdout, "impl: %s\nspec: %s\n", syntax.String(s.Impl), syntax.String(s.Spec))
	}
	r, err := protocols.Decide(protocols.NewChecker(), s)
	if err != nil {
		return err
	}
	rel := s.Rel
	if s.Weak {
		rel = "weak " + rel
	}
	verdict := "equivalent"
	if !r.Related {
		verdict = "distinguished"
	}
	fmt.Fprintf(stdout, "%s: impl and spec are %s (%s, %d pairs explored)\n", s.Name, verdict, rel, r.Pairs)
	if !r.Related && r.Reason != "" {
		fmt.Fprintf(stdout, "  reason: %s\n", r.Reason)
	}
	if certOut != "" {
		if r.Cert == nil {
			return fmt.Errorf("no certificate produced")
		}
		raw, err := r.Cert.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(certOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  certificate: %s (check with: bpicert verify %s)\n", certOut, certOut)
	}
	if r.Related != s.WantEquiv {
		return fmt.Errorf("verdict %s deviates from the scenario's expectation", verdict)
	}
	return nil
}
