package main

import (
	"flag"
	"fmt"
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
func cmdProtocols(args []string) error {
	fs := flag.NewFlagSet("protocols", flag.ExitOnError)
	list := fs.Bool("list", false, "list the scenario catalogue and exit")
	run := fs.String("run", "", "decide the named scenario (see -list)")
	certOut := fs.String("cert", "", "write the verdict's certificate JSON to this file")
	terms := fs.Bool("terms", false, "with -run, print the implementation and spec terms")
	fs.Parse(args)

	if *run == "" || *list {
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tALGO\tRELATION\tFAULT\tEXPECT\tSTATES")
		for _, s := range protocols.Catalogue() {
			rel := string(s.Rel)
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
	if *terms {
		fmt.Printf("impl: %s\nspec: %s\n", syntax.Print(s.Impl), syntax.Print(s.Spec))
	}
	r, err := protocols.Decide(protocols.NewChecker(), s)
	if err != nil {
		return err
	}
	rel := string(s.Rel)
	if s.Weak {
		rel = "weak " + rel
	}
	verdict := "equivalent"
	if !r.Related {
		verdict = "distinguished"
	}
	fmt.Printf("%s: impl and spec are %s (%s, %d pairs explored)\n", s.Name, verdict, rel, r.Pairs)
	if !r.Related && r.Reason != "" {
		fmt.Printf("  reason: %s\n", r.Reason)
	}
	if *certOut != "" {
		if r.Cert == nil {
			return fmt.Errorf("no certificate produced")
		}
		raw, err := r.Cert.Marshal()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*certOut, raw, 0o644); err != nil {
			return err
		}
		fmt.Printf("  certificate: %s (check with: bpicert verify %s)\n", *certOut, *certOut)
	}
	if r.Related != s.WantEquiv {
		return fmt.Errorf("verdict %s deviates from the scenario's expectation", verdict)
	}
	return nil
}
