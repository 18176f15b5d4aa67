package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// maxBatchBodyBytes bounds a batch request body; individual terms inside it
// are still bounded by Config.MaxTermBytes.
const maxBatchBodyBytes = 8 << 20

// handleBatch serves POST /v1/equiv/batch: many pairs, one request, one
// NDJSON response stream. The contract, pinned by tests:
//
//   - admission runs per pair, upfront, in index order — so under load the
//     batch sheds a deterministic suffix of its admission attempts, and a
//     shed pair is reported as a typed item (429-class error body with
//     retry_after_sec), never silently dropped;
//   - admitted pairs execute concurrently on the worker pool and stream
//     back in completion order, each tagged with its request index;
//   - the final line is a done=true trailer with the batch accounting; a
//     stream without it was truncated by a transport failure.
//
// The handler is raw (not instrument-wrapped) because it streams; it does
// its own request accounting under the "/v1/equiv/batch" endpoint label.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	code := "ok"
	defer func() { s.metrics.observe("/v1/equiv/batch", code, time.Since(start)) }()

	failNow := func(eb *ErrorBody) {
		code = eb.Code
		status, body := fail(eb)
		w.Header().Set("Content-Type", "application/json")
		if eb.RetryAfterSec > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(eb.RetryAfterSec))
		}
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(body)
	}

	var req BatchRequest
	if eb := decodeLimit(r, &req, maxBatchBodyBytes); eb != nil {
		failNow(eb)
		return
	}
	if len(req.Pairs) == 0 {
		failNow(&ErrorBody{Code: CodeInvalidRequest, Message: "batch has no pairs"})
		return
	}
	if max := s.cfg.batchMax(); len(req.Pairs) > max {
		failNow(&ErrorBody{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("batch has %d pairs (limit %d)", len(req.Pairs), max)})
		return
	}

	// Upfront admission, index order. Each admitted pair holds its queue
	// slot until its release below; shed pairs are decided right here.
	type admitted struct {
		release func(time.Duration)
		eb      *ErrorBody
	}
	draining := s.isClosed()
	adms := make([]admitted, len(req.Pairs))
	shed := 0
	for i := range req.Pairs {
		rel, sh := s.admission.Admit(s.timeout(req.Pairs[i].TimeoutMs), draining)
		if sh != nil {
			adms[i].eb = shedError(sh)
			shed++
			continue
		}
		adms[i].release = rel
	}

	finish, eb := s.beginWork()
	if eb != nil {
		// Shutdown raced in between: give back every held slot and refuse
		// the whole batch.
		for _, a := range adms {
			if a.release != nil {
				a.release(0)
			}
		}
		failNow(eb)
		return
	}
	defer finish()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	var wmu sync.Mutex
	writeLine := func(v any) {
		wmu.Lock()
		defer wmu.Unlock()
		_ = enc.Encode(v)
		if fl != nil {
			fl.Flush()
		}
	}

	var succeeded, failed atomic.Int64
	var wg sync.WaitGroup
	for i := range req.Pairs {
		if adms[i].eb != nil {
			writeLine(BatchItem{Index: i, Error: adms[i].eb})
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var served time.Duration
			defer func() { adms[i].release(served) }()
			if eb := s.acquireSlot(r.Context()); eb != nil {
				failed.Add(1)
				writeLine(BatchItem{Index: i, Error: eb})
				return
			}
			defer s.releaseSlot()
			t0 := time.Now()
			resp, eb := s.runEquiv(r.Context(), &req.Pairs[i], s.obs)
			served = time.Since(t0)
			if eb != nil {
				failed.Add(1)
				writeLine(BatchItem{Index: i, Error: eb})
				return
			}
			succeeded.Add(1)
			writeLine(BatchItem{Index: i, Equiv: resp})
		}(i)
	}
	wg.Wait()
	writeLine(BatchTrailer{
		Done:      true,
		Total:     len(req.Pairs),
		Succeeded: int(succeeded.Load()),
		Failed:    int(failed.Load()),
		Shed:      shed,
		ElapsedMs: float64(time.Since(start)) / float64(time.Millisecond),
	})
}
