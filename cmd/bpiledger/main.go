// Command bpiledger inspects and audits the persistent Merkle verdict
// ledger written by bpid -ledger. It is the offline counterpart of the
// daemon's /v1/ledger endpoints: everything it reports is recomputed from
// the log bytes and the independent certificate verifier — no trust in the
// daemon that wrote the ledger is required. stats reads the index that
// opening the ledger builds (framing, checksums, Merkle roots, the seal
// hash chain); verify, proof and export also replay the certificate of
// every record they read. Inspection writes nothing, not even the cut of a
// torn tail, so it is safe beside a running bpid.
//
// Usage:
//
//	bpiledger stats  [-f defs.bpi] <dir>
//	bpiledger verify [-f defs.bpi] <dir>
//	bpiledger proof  [-f defs.bpi] -key HASH <dir>
//	bpiledger export [-f defs.bpi] [-o out.jsonl] <dir>
//	bpiledger import [-f defs.bpi] [-i in.jsonl] [-quiet] <dir>
//
// verify replays the full log — framing checksums, Merkle roots, the seal
// hash chain, and every record's certificate — and exits 1 if anything was
// quarantined or the chain is broken. proof prints the compact inclusion
// proof of a record (by the hex key hash that bpid reports as ledger_key)
// and re-verifies it from the sealed root alone. export writes every
// trusted record as JSON lines; import appends records from such a file
// into another ledger, re-verifying each before it is written.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bpi/internal/cert"
	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/syntax"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is the whole command: it returns 0 on success, 1 when verification
// fails or the ledger, a key or an input cannot be read, and 2 on a usage
// error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	usage := func() { fmt.Fprint(stderr, usageText) }
	if len(args) < 1 {
		usage()
		return 2
	}
	cmd := args[0]
	switch cmd {
	case "stats", "verify", "proof", "export", "import":
	default:
		usage()
		return 2
	}
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = usage
	file := fs.String("f", "", "program file with definitions (for ledgers over defined constants)")
	key := fs.String("key", "", "hex key hash of the record (proof)")
	out := fs.String("o", "", "output file (export; default stdout)")
	in := fs.String("i", "", "input file (import; default stdin)")
	quiet := fs.Bool("quiet", false, "suppress progress and per-line rejection detail (import)")
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		usage()
		return 2
	}
	dir := fs.Arg(0)

	var env syntax.Env
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			return fail(stderr, err)
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			return fail(stderr, err)
		}
		env = prog.Env
	}
	// Timed sealing off: the CLI only seals explicitly (import → Close).
	cfg := ledger.Config{Env: env, MaxWait: -1}
	if cmd == "import" {
		return runImport(dir, cfg, *in, *quiet, stdin, stderr)
	}
	if cmd == "proof" && *key == "" {
		return fail(stderr, errors.New("proof needs -key HASH (the ledger_key bpid reports)"))
	}
	// Inspection: Open indexes the log and writes nothing, each read below
	// verifies the records it hands out, and Close appends nothing, so the
	// log is left as it was, a torn tail included.
	l, err := ledger.Open(dir, cfg)
	if err != nil {
		return fail(stderr, err)
	}
	defer l.Close()
	switch cmd {
	case "stats":
		printStats(l, stdout)
		return 0
	case "verify":
		return runVerify(l, stdout, stderr)
	case "proof":
		err = runProof(l, *key, stdout, stderr)
	default: // "export"
		err = runExport(l, *out, stdout, stderr)
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

func printStats(l *ledger.Ledger, stdout io.Writer) {
	st := l.Stats()
	fmt.Fprintf(stdout, "records   %d indexed, %d rejected, %d awaiting seal\n", st.Records, st.Rejected, st.Pending)
	fmt.Fprintf(stdout, "batches   %d sealed\n", st.Batches)
	fmt.Fprintf(stdout, "chain     %s", st.ChainHead)
	if st.ChainBroken {
		fmt.Fprintf(stdout, "  (BROKEN)")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "storage   %d bytes in %d segment(s)\n", st.Bytes, st.Segments)
	for _, n := range st.Notes {
		fmt.Fprintf(stdout, "note      %s\n", n)
	}
}

// runVerify is the full-scan audit: Open checked framing and the seal
// chain, and Replay verifies every record's certificate; the outcome
// decides the exit status and every quarantined record is itemised.
func runVerify(l *ledger.Ledger, stdout, stderr io.Writer) int {
	start := time.Now()
	l.Replay(func(*ledger.Record, *cert.Certificate) {})
	st := l.Stats()
	for _, note := range st.Notes {
		fmt.Fprintf(stderr, "bpiledger: note: %s\n", note)
	}
	for _, rej := range l.Rejections() {
		fmt.Fprintf(stderr, "bpiledger: REJECTED %s\n", rej)
	}
	fmt.Fprintf(stdout, "%d records verified, %d rejected, %d batches, chain %.12s… (%s)\n",
		st.Records, st.Rejected, st.Batches, st.ChainHead, time.Since(start).Round(time.Millisecond))
	if st.Rejected > 0 || st.ChainBroken {
		if st.ChainBroken {
			fmt.Fprintln(stderr, "bpiledger: seal hash chain is BROKEN")
		}
		return 1
	}
	return 0
}

func runProof(l *ledger.Ledger, key string, stdout, stderr io.Writer) error {
	p, err := l.Proof(key)
	if err != nil {
		return err
	}
	// Independent re-check before printing: a proof this command emits has
	// been folded back to its sealed root.
	if err := ledger.VerifyProof(p); err != nil {
		return err
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bpiledger: proof verified: leaf %d of %d, batch %d, root %.12s…\n",
		p.Leaf, p.Count, p.Batch, p.Root)
	return nil
}

func runExport(l *ledger.Ledger, out string, stdout, stderr io.Writer) error {
	w, closeOut := stdout, func() error { return nil }
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close() // for the error paths; success checks closeOut
		w, closeOut = f, f.Close
	}
	bw := bufio.NewWriter(w)
	n, err := l.Export(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = closeOut()
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bpiledger: exported %d records\n", n)
	return nil
}

// runImport appends records from a JSONL export into dir via
// ledger.Import: each record is re-verified (certificate replay included)
// before it is written — import is a trust boundary, not a byte copy — and
// sequence numbers are reassigned by the destination ledger. By default a
// progress line keeps long imports honest on stderr; -quiet leaves only
// the exit status.
func runImport(dir string, cfg ledger.Config, in string, quiet bool, stdin io.Reader, stderr io.Writer) int {
	r := stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		r = f
	}
	l, err := ledger.Open(dir, cfg)
	if err != nil {
		return fail(stderr, err)
	}
	opts := ledger.ImportOptions{}
	if !quiet {
		opts.ProgressEvery = 1000
		opts.Progress = func(st ledger.ImportStats) {
			fmt.Fprintf(stderr, "bpiledger: … %d lines: %d imported, %d rejected\n",
				st.Lines, st.Imported, st.Rejected)
		}
		opts.Reject = func(line int, err error) {
			fmt.Fprintf(stderr, "bpiledger: line %d REJECTED: %v\n", line, err)
		}
	}
	st, err := l.Import(r, opts)
	if cerr := l.Close(); err == nil { // seals the imported tail batch
		err = cerr
	}
	if err != nil {
		return fail(stderr, err)
	}
	if !quiet {
		fmt.Fprintf(stderr, "bpiledger: imported %d records, rejected %d\n", st.Imported, st.Rejected)
	}
	if st.Rejected > 0 {
		return 1
	}
	return 0
}

// fail reports err and returns the exit status of a failed command.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "bpiledger:", err)
	return 1
}

const usageText = `bpiledger — offline audit of the bpid verdict ledger

  bpiledger stats  [-f defs.bpi] <dir>                 index summary + recovery notes
  bpiledger verify [-f defs.bpi] <dir>                 full-scan replay; exit 1 on any rejection
  bpiledger proof  [-f defs.bpi] -key HASH <dir>       print + re-verify one inclusion proof
  bpiledger export [-f defs.bpi] [-o out.jsonl] <dir>  trusted records as JSON lines
  bpiledger import [-f defs.bpi] [-i in.jsonl] [-quiet] <dir>
                                                       append records, re-verifying each

Everything is recomputed from the log bytes: framing checksums, Merkle
roots, the seal hash chain, and the certificate of every record that
verify, proof or export reads, replayed against the independent
verifier. Inspection writes nothing. Exits 1 on verification failures,
2 on usage errors.

  -f file  program file with definitions, for ledgers whose terms mention
           defined constants
`
