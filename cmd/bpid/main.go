// Command bpid is the resident bπ equivalence-checking daemon: it serves
// equivalence and prover queries over HTTP/JSON. Each equivalence request,
// and each batch item, is decided on a term store of its own, dropped when
// the decision ends; what outlives a request is its verdict in the LRU
// and, with -ledger, in the ledger. Stepping, exploring, running and
// formatting one term is `bpi steps|explore|run|fmt`.
//
// Usage:
//
//	bpid [-addr :8317] [-f defs.bpi] [-workers N]
//	     [-cache N] [-max-pairs N] [-max-closure N]
//	     [-timeout D] [-max-timeout D] [-drain D]
//	     [-ledger DIR] [-merkle-batch N] [-merkle-wait-ms MS]
//	     [-batch-max N] [-admission-queue N]
//
// One gate admits all work that takes a worker: every POST, GET
// /v1/ledger/proof/{key}, and each /v1/equiv/batch item. It queues at most
// -admission-queue of them beyond the -workers running, and sheds the rest
// with typed 429s (queue_full, deadline_budget, draining) and Retry-After
// hints; see /metrics bpid_admission_*. A request's deadline (timeout_ms,
// or -timeout) starts when it arrives and covers its wait for a worker.
//
// With -ledger, bpid opens (or creates) a persistent Merkle verdict ledger
// in DIR. At startup it indexes every persisted verdict, checking framing,
// checksums and the seal hash chain. A verdict-cache miss whose pair has a
// record is answered from it once the independent certificate verifier
// accepts the record at its first read; a rejected record is quarantined
// and counted, and the query is decided afresh. Every fresh certified
// verdict is appended write-behind, sealed into hash-chained Merkle batches
// of -merkle-batch records (or after -merkle-wait-ms, whichever comes
// first). Inspect with `bpiledger`, or over HTTP via GET /v1/ledger/stats
// and GET /v1/ledger/proof/{key}.
//
// Endpoints: POST /v1/equiv, /v1/equiv/batch and /v1/prove; GET
// /v1/ledger/{stats,proof/{key}}, /healthz, /metrics (Prometheus text,
// including bpid_engine_events_total engine counters), GET /trace/{id} (the span tree and counters of one of the last 256
// gated requests, named by its X-Trace-Id header or a batch item's
// trace_id) and GET /debug/pprof/ (the standard Go profiling surface). See
// the README section "Running the daemon" for curl examples. bpid runs the
// garbage collector at GOGC=200 unless the GOGC variable is set.
// SIGINT/SIGTERM drains: in-flight and queued requests finish, new work is
// shed with draining. The exit status is 0 after a clean drain, 1 when the
// daemon cannot start or drain, and 2 on a usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// gcPercent is bpid's GOGC. Only the verdict LRU and the ledger index live
// long: each request's term store is garbage once it is answered. At the
// runtime's default of 100, perfbench batch peaked at 28.9–30.6 MB RSS
// against 35.0–36.4 MB at 200 (2-CPU host), but bpid collected twice as
// often and its cpu_s rose in 3 of 4 alternating pairs, so bpid keeps 200.
const gcPercent = 200

func main() {
	if os.Getenv("GOGC") == "" { // an operator's GOGC wins
		debug.SetGCPercent(gcPercent)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run serves until ctx is done, then drains, and returns the exit status.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bpid", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8317", "listen address")
	file := fs.String("f", "", "program file with definitions shared by all requests")
	workers := fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	cache := fs.Int("cache", 4096, "verdict LRU entries")
	maxPairs := fs.Int("max-pairs", 0, "default pair budget per query (0 = engine default)")
	maxClosure := fs.Int("max-closure", 0, "default closure budget per query (0 = engine default)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "cap on requested deadlines")
	drain := fs.Duration("drain", 30*time.Second, "shutdown drain budget")
	ledgerDir := fs.String("ledger", "", "directory of the persistent verdict ledger (empty = no persistence)")
	merkleBatch := fs.Int("merkle-batch", 64, "records per sealed Merkle batch")
	merkleWait := fs.Int("merkle-wait-ms", 2000, "max milliseconds a record stays unsealed (0 = seal on batch size only)")
	batchMax := fs.Int("batch-max", 256, "max pairs per /v1/equiv/batch request")
	admissionQueue := fs.Int("admission-queue", 64, "work queued for a worker beyond the worker pool (excess load is shed with 429)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	logger := log.New(stderr, "", log.LstdFlags)

	var env syntax.Env
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			logger.Printf("bpid: %v", err)
			return 1
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			logger.Printf("bpid: %s: %v", *file, err)
			return 1
		}
		env = prog.Env
	}

	var led *ledger.Ledger
	if *ledgerDir != "" {
		wait := time.Duration(*merkleWait) * time.Millisecond
		if *merkleWait <= 0 {
			wait = -1 // timed sealing off: seal on batch size and shutdown only
		}
		var err error
		led, err = ledger.Open(*ledgerDir, ledger.Config{
			Env:       env,
			BatchSize: *merkleBatch,
			MaxWait:   wait,
		})
		if err != nil {
			logger.Printf("bpid: %v", err)
			return 1
		}
		st := led.Stats()
		logger.Printf("bpid: ledger %s: %d indexed records (%d batches, %d rejected), chain %.12s…",
			*ledgerDir, st.Records, st.Batches, st.Rejected, st.ChainHead)
		for _, note := range st.Notes {
			logger.Printf("bpid: ledger recovery: %s", note)
		}
		for _, rej := range led.Rejections() {
			logger.Printf("bpid: ledger quarantined: %s", rej)
		}
	}

	// Listen after the ledger index is built, right before serving: a client
	// that connects earlier is refused at once instead of waiting in the
	// backlog.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("bpid: %v", err)
		if led != nil {
			led.Close() // nothing was appended: nothing to seal
		}
		return 1
	}
	svc := service.New(service.Config{
		Env:            env,
		Workers:        *workers,
		CacheSize:      *cache,
		MaxPairs:       *maxPairs,
		MaxClosure:     *maxClosure,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Ledger:         led,
		BatchMax:       *batchMax,
		AdmissionQueue: *admissionQueue,
	})
	httpSrv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("bpid: listening on %s (defs=%q)", ln.Addr(), *file)

	select {
	case err := <-errc:
		logger.Printf("bpid: %v", err)
		return 1
	case <-ctx.Done():
	}
	logger.Printf("bpid: draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		logger.Printf("bpid: http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		logger.Printf("bpid: %v", err)
		return 1
	}
	if led != nil {
		// After the service drain: the write-behind appender has flushed, so
		// closing seals the tail batch of the records this process appended.
		if err := led.Close(); err != nil {
			logger.Printf("bpid: ledger close: %v", err)
			return 1
		}
		st := led.Stats()
		logger.Printf("bpid: ledger sealed: %d records in %d batches", st.Records, st.Batches)
	}
	fmt.Fprintln(stdout, "bpid: drained cleanly")
	return 0
}
