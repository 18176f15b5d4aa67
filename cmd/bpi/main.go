// Command bpi is the front-end to the bπ-calculus library: it parses terms
// in the concrete syntax and shows their semantics.
//
// Usage:
//
//	bpi steps    [-f file] [term]    print the symbolic transitions
//	bpi discards [-f file] term chan report the discard relation
//	bpi explore  [-f file] [-n max] [term]
//	                                 build and summarise the transition graph
//	bpi run      [-f file] [-n max] [-seed s] [-trace] [term]
//	                                 execute by broadcast scheduling
//	bpi fmt      [-f file] [term]    parse and pretty-print
//	bpi protocols [-list] [-run name] [-cert out.json]
//	                                 list/run the broadcast-algorithm
//	                                 scenario library (internal/protocols)
//
// Terms come from the command line or from a program file (-f) holding
// "let" definitions and a main term.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bpi/internal/lts"
	"bpi/internal/machine"
	"bpi/internal/names"
	"bpi/internal/parser"
	"bpi/internal/semantics"
	"bpi/internal/syntax"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "steps":
		err = cmdSteps(args)
	case "discards":
		err = cmdDiscards(args)
	case "explore":
		err = cmdExplore(args)
	case "run":
		err = cmdRun(args)
	case "fmt":
		err = cmdFmt(args)
	case "protocols":
		err = cmdProtocols(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "bpi: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bpi:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `bpi — the broadcast π-calculus toolkit

  bpi steps    [-f file] [term]                transitions of a term
  bpi discards [-f file] term chan             discard relation
  bpi explore  [-f file] [-n max] [term]       reachable transition graph
  bpi run      [-f file] [-n max] [-seed s] [-trace] [term]
  bpi fmt      [-f file] [term]                parse and pretty-print
  bpi protocols [-list] [-run name] [-cert out.json] [-terms]
                                               broadcast-algorithm scenario library
`)
}

// load parses the term and environment from flags/arguments.
func load(fs *flag.FlagSet, file string, args []string) (syntax.Proc, syntax.Env, error) {
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
	return main, env, nil
}

func cmdSteps(args []string) error {
	fs := flag.NewFlagSet("steps", flag.ExitOnError)
	file := fs.String("f", "", "program file with definitions")
	fs.Parse(args)
	p, env, err := load(fs, *file, fs.Args())
	if err != nil {
		return err
	}
	sys := semantics.NewSystem(env)
	ts, err := sys.Steps(p)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", syntax.String(p))
	if len(ts) == 0 {
		fmt.Println("  (no transitions)")
	}
	for _, t := range ts {
		fmt.Printf("  %s\n", t)
	}
	return nil
}

func cmdDiscards(args []string) error {
	fs := flag.NewFlagSet("discards", flag.ExitOnError)
	file := fs.String("f", "", "program file with definitions")
	fs.Parse(args)
	rest := fs.Args()
	if len(rest) < 2 {
		return fmt.Errorf("usage: bpi discards [-f file] term chan")
	}
	ch := names.Name(rest[len(rest)-1])
	p, env, err := load(fs, *file, rest[:len(rest)-1])
	if err != nil {
		return err
	}
	sys := semantics.NewSystem(env)
	d, err := sys.Discards(p, ch)
	if err != nil {
		return err
	}
	if d {
		fmt.Printf("%s discards %s\n", syntax.String(p), ch)
	} else {
		fmt.Printf("%s is listening on %s\n", syntax.String(p), ch)
	}
	return nil
}

func cmdExplore(args []string) error {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	file := fs.String("f", "", "program file with definitions")
	max := fs.Int("n", 4096, "state budget")
	auto := fs.Bool("auto", false, "autonomous moves only (no input grounding)")
	dot := fs.String("dot", "", "write the graph in Graphviz DOT format to this file")
	fs.Parse(args)
	p, env, err := load(fs, *file, fs.Args())
	if err != nil {
		return err
	}
	if issues := syntax.CheckSorts(p, env); len(issues) > 0 {
		for _, is := range issues {
			fmt.Fprintf(os.Stderr, "warning: %s (a mismatched listener blocks broadcasts)\n", is)
		}
	}
	g, err := lts.Explore(semantics.NewSystem(env), []syntax.Proc{p}, lts.Options{
		MaxStates: *max, AutonomousOnly: *auto,
	})
	if err != nil {
		return err
	}
	if *dot != "" {
		f, err := os.Create(*dot)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteDOT(f, 0); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *dot)
	}
	fmt.Println(g)
	for i, st := range g.States {
		if i >= 20 {
			fmt.Printf("  … %d more states\n", len(g.States)-20)
			break
		}
		fmt.Printf("  s%d: %s\n", i, syntax.String(st.Proc))
		for _, e := range g.Edges[i] {
			fmt.Printf("      --%s--> s%d\n", e.Lab, e.Dst)
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	file := fs.String("f", "", "program file with definitions")
	max := fs.Int("n", 200, "step budget")
	seed := fs.Int64("seed", 1, "scheduler seed")
	trace := fs.Bool("trace", false, "print every fired transition")
	stop := fs.String("stop", "", "stop when this channel fires")
	fs.Parse(args)
	p, env, err := load(fs, *file, fs.Args())
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
		fmt.Printf("  %s\n", ev)
	}
	switch {
	case res.Stopped:
		fmt.Printf("stopped after %d steps at %s\n", res.Steps, res.StopEvent)
	case res.Quiescent:
		fmt.Printf("quiescent after %d steps\n", res.Steps)
	default:
		fmt.Printf("step budget reached (%d)\n", res.Steps)
	}
	fmt.Printf("final: %s\n", syntax.String(res.Final))
	return nil
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	file := fs.String("f", "", "program file with definitions")
	fs.Parse(args)
	p, env, err := load(fs, *file, fs.Args())
	if err != nil {
		return err
	}
	for _, id := range env.Idents() {
		d, _ := env.Lookup(id)
		params := make([]string, len(d.Params))
		for i, x := range d.Params {
			params[i] = string(x)
		}
		fmt.Printf("let %s(%s) = %s\n", id, strings.Join(params, ","), syntax.String(d.Body))
	}
	fmt.Println(syntax.String(p))
	return nil
}
