// Command bpicert checks the replayable certificates emitted by the
// equivalence engines (bpibisim -cert, bpiaxiom -cert, the "certificate"
// field of bpid's /v1/equiv with "cert": true) against the independent
// verifier of internal/cert.
// The verifier shares no code with the engines: it re-derives every claimed
// transition from the LTS rules, so a certificate that verifies is evidence
// about the calculus, not about the engine that produced it. A positive
// certificate lists its relation's pairs only, and the verifier derives each
// challenge's answers and checks that one lands in the relation. Version-1
// files, whose positive certificates also listed move tables, verify the
// same way: their move tables are ignored.
//
// Usage:
//
//	bpicert verify [-f file] [-q] cert.json [more.json ...]
//
// Reads each certificate (or stdin for "-"), replays it, and reports one
// line per file. Exits non-zero if any certificate is rejected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bpi/internal/cert"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it returns 0 when every certificate verifies,
// 1 when one is rejected or cannot be read, and 2 on a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	usage := func() { fmt.Fprint(stderr, usageText) }
	if len(args) < 1 || args[0] != "verify" {
		usage()
		return 2
	}
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = usage
	file := fs.String("f", "", "program file with definitions (for certificates over defined constants)")
	quiet := fs.Bool("q", false, "suppress per-certificate output; only the exit status reports")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		usage()
		return 2
	}
	var env syntax.Env
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(stderr, "bpicert:", err)
			return 1
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			fmt.Fprintln(stderr, "bpicert:", err)
			return 1
		}
		env = prog.Env
	}
	v := &cert.Verifier{Sys: semantics.NewSystem(env)}
	bad := 0
	for _, path := range fs.Args() {
		var data []byte
		var err error
		if path == "-" {
			data, err = io.ReadAll(stdin)
		} else {
			data, err = os.ReadFile(path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bpicert:", err)
			return 1
		}
		c, err := cert.Unmarshal(data)
		if err != nil {
			fmt.Fprintf(stderr, "bpicert: %s: %v\n", path, err)
			bad++
			continue
		}
		if err := v.Verify(c); err != nil {
			fmt.Fprintf(stderr, "bpicert: %s: REJECTED: %v\n", path, err)
			bad++
			continue
		}
		if !*quiet {
			verdict := "NOT related"
			if c.Related {
				verdict = "related"
			}
			fmt.Fprintf(stdout, "%s: OK  %s %s  p=%s  q=%s\n", path, c.Relation, verdict, c.P, c.Q)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

const usageText = `bpicert — independent certificate verifier

  bpicert verify [-f file] [-q] cert.json [more.json ...]

Replays each certificate against the LTS rules (no engine code involved)
and prints one line per file; "-" reads from stdin. Exits 1 if any
certificate is rejected, 2 on usage errors.

  -f file  program file with definitions, for certificates whose terms
           mention defined constants
  -q       quiet: only the exit status reports
`
