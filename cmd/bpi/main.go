// Command bpi is the front-end to the bπ-calculus library: it parses terms
// in the concrete syntax and shows their semantics.
//
// Usage:
//
//	bpi steps    [-f file] [term]    print the symbolic transitions
//	bpi discards [-f file] term chan report the discard relation
//	bpi explore  [-f file] [-n max] [-auto] [-dot out.dot] [term]
//	                                 build and summarise the transition graph
//	bpi run      [-f file] [-n max] [-seed s] [-trace] [-stop chan] [term]
//	                                 execute by broadcast scheduling
//	bpi fmt      [-f file] [term]    parse and pretty-print
//	bpi protocols [-list] [-run name] [-cert out.json] [-terms]
//	                                 list/run the broadcast-algorithm
//	                                 scenario library (internal/protocols)
//
// Terms come from the command line or from a program file (-f) holding
// "let" definitions and a main term. explore -auto keeps only autonomous
// moves, -dot writes the graph in Graphviz DOT; run -stop ends the run when
// the named channel fires; protocols -terms prints the scenario's terms.
//
// The exit status is 0 on success and for help, 1 when the command fails (a
// term that does not parse or is missing, a call to an undefined
// identifier or with the wrong arity, the unfold budget, an unknown
// scenario, or a verdict that deviates from its scenario) and 2 on a usage
// error (no or an unknown subcommand, an unknown flag, a missing operand).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"bpi/internal/lts"
	"bpi/internal/machine"
	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usageText = `bpi — the broadcast π-calculus toolkit

  bpi steps    [-f file] [term]                transitions of a term
  bpi discards [-f file] term chan             discard relation
  bpi explore  [-f file] [-n max] [-auto] [-dot out.dot] [term]
                                               reachable transition graph
  bpi run      [-f file] [-n max] [-seed s] [-trace] [-stop chan] [term]
                                               execute by broadcast scheduling
  bpi fmt      [-f file] [term]                parse and pretty-print
  bpi protocols [-list] [-run name] [-cert out.json] [-terms]
                                               broadcast-algorithm scenario library
`

// errUsage marks a usage error: the command line, not the term, is wrong.
var errUsage = errors.New("usage error")

// run is the whole command and returns its exit status. Each subcommand
// parses its own flags from its arguments.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	var err error
	switch cmd, rest := args[0], args[1:]; cmd {
	case "steps":
		err = cmdSteps(rest, stdout, stderr)
	case "discards":
		err = cmdDiscards(rest, stdout, stderr)
	case "explore":
		err = cmdExplore(rest, stdout, stderr)
	case "run":
		err = cmdRun(rest, stdout, stderr)
	case "fmt":
		err = cmdFmt(rest, stdout, stderr)
	case "protocols":
		err = cmdProtocols(rest, stdout, stderr)
	case "help", "-h", "--help":
		fmt.Fprint(stdout, usageText)
	default:
		fmt.Fprintf(stderr, "bpi: unknown command %q\n%s", cmd, usageText)
		return 2
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	default:
		fmt.Fprintln(stderr, "bpi:", err)
		return 1
	}
}

// flags returns a subcommand's flag set with its -f flag; a flag error is
// written to stderr.
func flags(name string, stderr io.Writer) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet("bpi "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, fs.String("f", "", "program file with definitions")
}

// parse parses a subcommand's flags. An unknown flag is a usage error; -h
// returns flag.ErrHelp, after the flag set has printed its defaults.
func parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return errUsage
	}
	return err
}

// load parses the term and environment from flags/arguments. Every call in
// the term must name a definition with its arity.
func load(file string, args []string) (syntax.Proc, syntax.Env, error) {
	var env syntax.Env
	var main syntax.Proc
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, nil, err
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			return nil, nil, err
		}
		env, main = prog.Env, prog.Main
	}
	if len(args) > 0 {
		t, err := parser.Parse(strings.Join(args, " "))
		if err != nil {
			return nil, nil, err
		}
		main = t
	}
	if main == nil {
		return nil, nil, fmt.Errorf("no term given (argument or -f file with a main term)")
	}
	if err := env.CheckCalls("the term", main); err != nil {
		return nil, nil, err
	}
	return main, env, nil
}

func cmdSteps(args []string, stdout, stderr io.Writer) error {
	fs, file := flags("steps", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, env, err := load(*file, fs.Args())
	if err != nil {
		return err
	}
	ts, err := semantics.NewSystem(env).Steps(p)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", syntax.String(p))
	if len(ts) == 0 {
		fmt.Fprintln(stdout, "  (no transitions)")
	}
	for _, t := range ts {
		fmt.Fprintf(stdout, "  %s\n", t)
	}
	return nil
}

func cmdDiscards(args []string, stdout, stderr io.Writer) error {
	fs, file := flags("discards", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 2 {
		fmt.Fprintln(stderr, "usage: bpi discards [-f file] term chan")
		return errUsage
	}
	ch := names.Name(rest[len(rest)-1])
	p, env, err := load(*file, rest[:len(rest)-1])
	if err != nil {
		return err
	}
	d, err := semantics.NewSystem(env).Discards(p, ch)
	if err != nil {
		return err
	}
	if d {
		fmt.Fprintf(stdout, "%s discards %s\n", syntax.String(p), ch)
	} else {
		fmt.Fprintf(stdout, "%s is listening on %s\n", syntax.String(p), ch)
	}
	return nil
}

func cmdExplore(args []string, stdout, stderr io.Writer) error {
	fs, file := flags("explore", stderr)
	max := fs.Int("n", 4096, "state budget")
	auto := fs.Bool("auto", false, "autonomous moves only (no input grounding)")
	dot := fs.String("dot", "", "write the graph in Graphviz DOT format to this file")
	if err := parse(fs, args); err != nil {
		return err
	}
	p, env, err := load(*file, fs.Args())
	if err != nil {
		return err
	}
	for _, is := range syntax.CheckSorts(p, env) {
		fmt.Fprintf(stderr, "warning: %s (a mismatched listener blocks broadcasts)\n", is)
	}
	g, err := lts.Explore(semantics.NewSystem(env), []syntax.Proc{p}, lts.Options{
		MaxStates: *max, AutonomousOnly: *auto,
	})
	if err != nil {
		return err
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err == nil {
			err = g.WriteDOT(f, 0)
			if cerr := f.Close(); err == nil {
				err = cerr // a failed write can show first at Close
			}
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *dot)
	}
	fmt.Fprintln(stdout, g)
	for i, st := range g.States {
		if i >= 20 {
			fmt.Fprintf(stdout, "  … %d more states\n", len(g.States)-20)
			break
		}
		fmt.Fprintf(stdout, "  s%d: %s\n", i, syntax.String(st.Proc))
		for _, e := range g.Edges[i] {
			fmt.Fprintf(stdout, "      --%s--> s%d\n", e.Lab, e.Dst)
		}
	}
	return nil
}

func cmdRun(args []string, stdout, stderr io.Writer) error {
	fs, file := flags("run", stderr)
	max := fs.Int("n", 200, "step budget")
	seed := fs.Int64("seed", 1, "scheduler seed")
	trace := fs.Bool("trace", false, "print every fired transition")
	stop := fs.String("stop", "", "stop when this channel fires")
	if err := parse(fs, args); err != nil {
		return err
	}
	p, env, err := load(*file, fs.Args())
	if err != nil {
		return err
	}
	opt := machine.Options{
		MaxSteps:  *max,
		Scheduler: machine.NewRandomScheduler(*seed),
		KeepTrace: *trace,
	}
	if *stop != "" {
		opt.StopOnBarb = []names.Name{names.Name(*stop)}
	}
	res, err := machine.Run(semantics.NewSystem(env), p, opt)
	if err != nil {
		return err
	}
	for _, ev := range res.Trace {
		fmt.Fprintf(stdout, "  %s\n", ev)
	}
	switch {
	case res.Stopped:
		fmt.Fprintf(stdout, "stopped after %d steps at %s\n", res.Steps, res.StopEvent)
	case res.Quiescent:
		fmt.Fprintf(stdout, "quiescent after %d steps\n", res.Steps)
	default:
		fmt.Fprintf(stdout, "step budget reached (%d)\n", res.Steps)
	}
	fmt.Fprintf(stdout, "final: %s\n", syntax.String(res.Final))
	return nil
}

func cmdFmt(args []string, stdout, stderr io.Writer) error {
	fs, file := flags("fmt", stderr)
	if err := parse(fs, args); err != nil {
		return err
	}
	p, env, err := load(*file, fs.Args())
	if err != nil {
		return err
	}
	for _, id := range env.Idents() {
		d, _ := env.Lookup(id)
		params := make([]string, len(d.Params))
		for i, x := range d.Params {
			params[i] = string(x)
		}
		fmt.Fprintf(stdout, "let %s(%s) = %s\n", id, strings.Join(params, ","), syntax.String(d.Body))
	}
	fmt.Fprintln(stdout, syntax.String(p))
	return nil
}
