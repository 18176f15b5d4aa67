package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bpi/internal/obs"
)

// maxBatchBodyBytes bounds a batch request body; individual terms inside it
// are still bounded by ledger.MaxTermBytes.
const maxBatchBodyBytes = 8 << 20

// handleBatch serves POST /v1/equiv/batch: many pairs, one request, one
// NDJSON response stream. The contract, pinned by tests:
//
//   - admission runs per pair, upfront, in index order — so under load the
//     batch sheds a deterministic suffix of its admission attempts, and a
//     shed pair is reported as a typed item (429-class error body with
//     retry_after_sec), never silently dropped;
//   - admitted pairs run in index order on min(admitted, Workers)
//     goroutines of the batch, each taking the next pair when it finishes
//     one, and stream back in completion order, each tagged with its
//     request index and the id of its own trace;
//   - each pair's deadline (its timeout_ms, or the default) starts when
//     the batch arrives, and bounds its admission, its wait for a
//     goroutine and a worker, and its run; a pair whose deadline passed
//     before a goroutine took it answers deadline_exceeded unparsed;
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

	// Upfront admission, index order: each admitted pair holds its place
	// until its ticket is done; shed pairs, during a drain all of them, are
	// decided right here.
	tickets := make([]*ticket, len(req.Pairs))
	sheds := make([]*ErrorBody, len(req.Pairs))
	shed := 0
	for i := range req.Pairs {
		if tickets[i], sheds[i] = s.gate.admit(s.timeout(req.Pairs[i].TimeoutMs)); sheds[i] != nil {
			shed++
		}
	}

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

	// The admitted pairs queue in index order for the batch's goroutines.
	work := make(chan int, len(tickets)-shed)
	for i, t := range tickets {
		if t == nil {
			writeLine(BatchItem{Index: i, Error: sheds[i]})
		} else {
			work <- i
		}
	}
	close(work)
	var succeeded, failed atomic.Int64
	var wg sync.WaitGroup
	for range min(len(work), s.cfg.workers()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				item := s.batchItem(r, start, i, &req.Pairs[i], tickets[i])
				if item.Error != nil {
					failed.Add(1)
				} else {
					succeeded.Add(1)
				}
				writeLine(item)
			}
		}()
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

// batchItem runs admitted pair i of a batch that arrived at start under
// ticket t, and files its trace.
func (s *Server) batchItem(r *http.Request, start time.Time, i int, pair *EquivRequest, t *ticket) BatchItem {
	ctx := newDeadline(r.Context(), start.Add(s.timeout(pair.TimeoutMs)))
	defer ctx.release()
	tr := obs.NewWithLimit(traceLimit)
	item := BatchItem{Index: i}
	if err := ctx.Err(); err != nil { // it passed while the pair waited for a goroutine
		t.done(0)
		item.Error = classify(err)
	} else if eb := t.serve(ctx, func() {
		item.Equiv, item.Error = s.runEquiv(ctx, pair, tr)
	}); eb != nil {
		item.Error = eb
	}
	item.TraceID = s.fileTrace(r.URL.Path, tr)
	return item
}
