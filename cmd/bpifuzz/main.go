// Command bpifuzz is the differential & metamorphic fuzzer: it hammers the
// cross-layer law registry of internal/oracle with seeded random term
// pairs, shrinks every violation to a minimal counterexample, and exits
// non-zero if any law failed.
//
//	bpifuzz -budget 20000 -seed 1
//	bpifuzz -laws axioms/decide-agree -seed 58 -budget 1   # replay one case
//	bpifuzz -list
//
// The registry spans the paper's theorems, the §5 prover, the engines (the
// bpid daemon included), verdict certificates, and the persistent Merkle
// verdict ledger (ledger/roundtrip: decide → persist → reopen must preserve
// verdict, certificate and inclusion proof).
//
// Every violation prints the exact flags that replay it alone; with -out,
// shrunk counterexamples are also persisted as regression .case files
// (see testdata/fuzz/README.md).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"bpi/internal/oracle"
	"bpi/internal/service"
)

func main() {
	var (
		budget   = flag.Int("budget", 20000, "total iterations across all selected laws")
		seed     = flag.Int64("seed", 1, "run seed; iteration i reproduces alone with -seed <seed+i> -budget 1")
		lawsCSV  = flag.String("laws", "", "comma-separated law names (default: all; see -list)")
		outDir   = flag.String("out", "", "directory for shrunk counterexample .case files")
		daemon   = flag.Bool("daemon", true, "boot an in-process bpid so engines/agree covers the service layer")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size of the in-process bpid")
		maxViol  = flag.Int("max-violations", 10, "stop after this many violations")
		list     = flag.Bool("list", false, "list the law registry and exit")
		progress = flag.Bool("v", false, "print progress every 1000 iterations")
	)
	flag.Parse()

	if *list {
		for _, l := range oracle.Registry() {
			fmt.Printf("%-26s %s\n", l.Name, l.Doc)
		}
		return
	}

	var lawNames []string
	if *lawsCSV != "" {
		for _, n := range strings.Split(*lawsCSV, ",") {
			if n = strings.TrimSpace(n); n != "" {
				lawNames = append(lawNames, n)
			}
		}
	}
	laws, err := oracle.LawByName(lawNames)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	env := oracle.NewEnv()
	if *daemon {
		d, err := oracle.StartDaemon(service.Config{Workers: *workers})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bpifuzz: daemon: %v\n", err)
			os.Exit(2)
		}
		defer d.Close()
		env.Daemon = d
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := oracle.Config{
		Seed:          *seed,
		Budget:        *budget,
		Laws:          laws,
		OutDir:        *outDir,
		MaxViolations: *maxViol,
	}
	start := time.Now()
	if *progress {
		cfg.Progress = func(done, total int, v *oracle.Violation) {
			if v != nil {
				fmt.Fprintf(os.Stderr, "[%d/%d] VIOLATION %s\n", done, total, v.Law)
			} else if done%1000 == 0 {
				fmt.Fprintf(os.Stderr, "[%d/%d] %.1fs\n", done, total, time.Since(start).Seconds())
			}
		}
	}

	rep, err := oracle.Run(ctx, env, cfg)
	if err != nil && ctx.Err() == nil {
		fmt.Fprintf(os.Stderr, "bpifuzz: %v\n", err)
		os.Exit(2)
	}

	elapsed := time.Since(start)
	fmt.Printf("bpifuzz: seed=%d ran %d/%d iterations in %.1fs (%.0f/s)\n",
		rep.Seed, rep.Ran, *budget, elapsed.Seconds(),
		float64(rep.Ran)/elapsed.Seconds())
	var names []string
	for n := range rep.PerLaw {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-26s %6d iterations, %d engine errors\n", n, rep.PerLaw[n], rep.Errors[n])
	}
	if ctx.Err() != nil {
		fmt.Println("bpifuzz: interrupted")
	}

	if len(rep.Violations) > 0 {
		fmt.Printf("\n%d LAW VIOLATION(S):\n", len(rep.Violations))
		for _, v := range rep.Violations {
			fmt.Printf("\n%s\n  original: p = %s\n            q = %s\n  shrink: %d predicate evaluations\n",
				v, v.OrigP, v.OrigQ, v.ShrinkOps)
		}
		if *outDir != "" {
			fmt.Printf("\ncounterexamples persisted under %s\n", *outDir)
		}
		os.Exit(1)
	}
	fmt.Println("all laws held")
}
