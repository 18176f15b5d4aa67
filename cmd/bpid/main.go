// Command bpid is the resident bπ equivalence-checking daemon: it serves
// parse/step/explore, equivalence, prover and machine-run queries over
// HTTP/JSON from ONE shared term store, so concurrent and repeated queries
// reuse each other's derivations.
//
// Usage:
//
//	bpid [-addr :8317] [-f defs.bpi] [-workers N]
//	     [-queue N] [-cache N] [-max-pairs N] [-max-closure N]
//	     [-timeout D] [-max-timeout D]
//	     [-ledger DIR] [-merkle-batch N] [-merkle-wait-ms MS]
//	     [-batch-max N] [-admission-queue N]
//
// The admission controller in front of /v1/equiv and /v1/equiv/batch sheds
// excess load with typed 429s (queue_full, deadline_budget, draining) and
// Retry-After hints; see /metrics bpid_admission_*.
//
// With -ledger, bpid opens (or creates) a persistent Merkle verdict ledger
// in DIR: every persisted verdict is replayed through the independent
// certificate verifier on startup — accepted records warm-start the verdict
// cache, rejected ones are quarantined and counted — and every fresh
// certified verdict is appended write-behind, sealed into hash-chained
// Merkle batches of -merkle-batch records (or after -merkle-wait-ms,
// whichever comes first). Inspect with `bpiledger`, or over HTTP via
// GET /v1/ledger/stats and GET /v1/ledger/proof/{key}.
//
// Endpoints: POST /v1/{parse,step,explore,equiv,prove,run,jobs},
// GET /v1/jobs/{id}, /v1/ledger/{stats,proof/{key}}, /healthz, /metrics
// (Prometheus text, including bpid_engine_events_total engine counters),
// GET /trace/{id} (a finished job's span tree and counters) and
// GET /debug/pprof/ (the standard Go profiling surface). See the README
// section "Running the daemon" for curl examples. SIGINT/SIGTERM drains:
// in-flight requests and accepted jobs finish, new work is refused.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

func main() {
	addr := flag.String("addr", ":8317", "listen address")
	file := flag.String("f", "", "program file with definitions shared by all requests")
	workers := flag.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max unfinished async jobs")
	cache := flag.Int("cache", 4096, "verdict LRU entries")
	maxPairs := flag.Int("max-pairs", 0, "default pair budget per query (0 = engine default)")
	maxClosure := flag.Int("max-closure", 0, "default closure budget per query (0 = engine default)")
	timeout := flag.Duration("timeout", 10*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 60*time.Second, "cap on requested deadlines")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget")
	ledgerDir := flag.String("ledger", "", "directory of the persistent verdict ledger (empty = no persistence)")
	merkleBatch := flag.Int("merkle-batch", 64, "records per sealed Merkle batch")
	merkleWait := flag.Int("merkle-wait-ms", 2000, "max milliseconds a record stays unsealed (0 = seal on batch size only)")
	batchMax := flag.Int("batch-max", 256, "max pairs per /v1/equiv/batch request")
	admissionQueue := flag.Int("admission-queue", 64, "admission queue capacity beyond the worker pool (excess load is shed with 429)")
	flag.Parse()

	var env syntax.Env
	if *file != "" {
		src, err := os.ReadFile(*file)
		if err != nil {
			log.Fatalf("bpid: %v", err)
		}
		prog, err := parser.ParseProgram(string(src))
		if err != nil {
			log.Fatalf("bpid: %s: %v", *file, err)
		}
		if err := prog.Env.Validate(); err != nil {
			log.Fatalf("bpid: %s: %v", *file, err)
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
			log.Fatalf("bpid: %v", err)
		}
		st := led.Stats()
		log.Printf("bpid: ledger %s: %d trusted records (%d batches, %d rejected), chain %.12s…",
			*ledgerDir, st.Records, st.Batches, st.Rejected, st.ChainHead)
		for _, note := range st.Notes {
			log.Printf("bpid: ledger recovery: %s", note)
		}
		for _, rej := range led.Rejections() {
			log.Printf("bpid: ledger quarantined: %s", rej)
		}
	}

	svc := service.New(service.Config{
		Env:            env,
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cache,
		MaxPairs:       *maxPairs,
		MaxClosure:     *maxClosure,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		Ledger:         led,
		BatchMax:       *batchMax,
		AdmissionQueue: *admissionQueue,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("bpid: listening on %s (defs=%q)", *addr, *file)

	select {
	case err := <-errc:
		log.Fatalf("bpid: %v", err)
	case <-ctx.Done():
	}
	log.Printf("bpid: draining (budget %s)", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		log.Printf("bpid: http shutdown: %v", err)
	}
	if err := svc.Shutdown(dctx); err != nil {
		log.Printf("bpid: %v", err)
		os.Exit(1)
	}
	if led != nil {
		// After the service drain: the write-behind appender has flushed, so
		// closing seals the tail batch of the records this process appended.
		if err := led.Close(); err != nil {
			log.Printf("bpid: ledger close: %v", err)
			os.Exit(1)
		}
		st := led.Stats()
		log.Printf("bpid: ledger sealed: %d records in %d batches", st.Records, st.Batches)
	}
	fmt.Println("bpid: drained cleanly")
}
