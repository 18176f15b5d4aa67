package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/service"
)

// The /v1/equiv/batch wire contract: NDJSON items tagged with the request
// index, per-pair typed errors that never poison their neighbours, a
// mandatory done=true trailer with honest accounting, and whole-batch
// refusals (empty, oversized) as standard error envelopes.

func TestBatchRoundTrip(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{Workers: 2})
	pairs := []bpi.EquivRequest{
		{P: "a! | b!", Q: "a!.b! + b!.a!", Rel: cert.RelLabelled, TimeoutMs: 30000},
		{P: "tau.a!", Q: "a!", Rel: cert.RelLabelled, Weak: true, TimeoutMs: 30000},
		{P: "a!", Q: "b!", Rel: cert.RelLabelled, TimeoutMs: 30000},
		{P: "a!.b!", Q: "a!.b!", Rel: cert.RelLabelled, Cert: true, TimeoutMs: 30000},
	}
	wantRelated := []bool{true, true, false, true}

	res, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trailer
	if !tr.Done || tr.Total != len(pairs) || tr.Succeeded != len(pairs) || tr.Failed != 0 || tr.Shed != 0 {
		t.Fatalf("trailer %+v, want %d clean verdicts", tr, len(pairs))
	}
	if len(res.Items) != len(pairs) {
		t.Fatalf("%d items, want %d", len(res.Items), len(pairs))
	}
	for i, it := range res.Items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d after client reordering", i, it.Index)
		}
		if it.Error != nil || it.Equiv == nil {
			t.Fatalf("item %d: %+v, want a verdict", i, it)
		}
		if it.Equiv.Related != wantRelated[i] {
			t.Errorf("item %d: related=%t, want %t", i, it.Equiv.Related, wantRelated[i])
		}
		if (it.Equiv.Certificate != nil) != pairs[i].Cert {
			t.Errorf("item %d: certificate presence %t, requested %t",
				i, it.Equiv.Certificate != nil, pairs[i].Cert)
		}
	}

	// The identical batch again: every verdict must now come from the cache.
	res2, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res2.Items {
		if it.Equiv == nil || !it.Equiv.Cached {
			t.Errorf("repeat item %d not served from the verdict cache: %+v", i, it)
		}
		if it.Equiv != nil && it.Equiv.Related != wantRelated[i] {
			t.Errorf("repeat item %d: cached verdict drifted to related=%t", i, it.Equiv.Related)
		}
	}
}

// TestBatchPerPairErrors: a malformed pair yields a typed item error at its
// index; the healthy pairs around it still get verdicts, and the trailer
// splits the accounting.
func TestBatchPerPairErrors(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{Workers: 2})
	pairs := []bpi.EquivRequest{
		{P: "a!.b!", Q: "a!.b!", Rel: cert.RelLabelled, TimeoutMs: 30000},
		{P: "((", Q: "a!", Rel: cert.RelLabelled, TimeoutMs: 30000},   // parse error
		{P: "a!", Q: "b!", Rel: "no-such-relation", TimeoutMs: 30000}, // bad relation
		{P: "c!.d!", Q: "c!.d!", Rel: cert.RelLabelled, TimeoutMs: 30000},
	}
	res, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trailer
	if tr.Total != 4 || tr.Succeeded != 2 || tr.Failed != 2 || tr.Shed != 0 {
		t.Fatalf("trailer %+v, want total=4 succeeded=2 failed=2 shed=0", tr)
	}
	for _, i := range []int{0, 3} {
		if res.Items[i].Equiv == nil || !res.Items[i].Equiv.Related {
			t.Errorf("healthy item %d poisoned by a failing neighbour: %+v", i, res.Items[i])
		}
	}
	if e := res.Items[1].Error; e == nil || e.Code != service.CodeParseError {
		t.Errorf("item 1: %+v, want parse_error", res.Items[1])
	}
	if e := res.Items[2].Error; e == nil || e.Code != service.CodeInvalidRequest {
		t.Errorf("item 2: %+v, want invalid_request", res.Items[2])
	}
}

// TestBatchWholeRefusals: empty and oversized batches are refused upfront
// with a standard error envelope — no stream, no partial work.
func TestBatchWholeRefusals(t *testing.T) {
	_, ts, cl := newTestServer(t, service.Config{Workers: 1, BatchMax: 3})

	if _, err := cl.Batch(context.Background(), bpi.BatchRequest{}); err == nil {
		t.Error("empty batch accepted")
	} else if apiErr, ok := err.(*bpi.APIError); !ok || apiErr.Code != service.CodeInvalidRequest {
		t.Errorf("empty batch: %v, want typed invalid_request", err)
	}

	over := bpi.BatchRequest{}
	for i := 0; i < 4; i++ {
		over.Pairs = append(over.Pairs, bpi.EquivRequest{P: "a!", Q: "a!", Rel: cert.RelLabelled})
	}
	if _, err := cl.Batch(context.Background(), over); err == nil {
		t.Error("oversized batch accepted")
	} else if apiErr, ok := err.(*bpi.APIError); !ok || apiErr.Code != service.CodeInvalidRequest {
		t.Errorf("oversized batch: %v, want typed invalid_request", err)
	} else if !strings.Contains(apiErr.Message, "limit 3") {
		t.Errorf("oversized batch message %q does not name the limit", apiErr.Message)
	}

	resp, body := post(t, ts, "/v1/equiv/batch", `{"pairs": [`)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != service.CodeInvalidRequest {
		t.Errorf("bad JSON: status %d body %s, want 400 invalid_request", resp.StatusCode, body)
	}
}

// TestBatchStreamShape reads the raw NDJSON: correct content type, one
// valid JSON object per line, items before the single done=true trailer,
// nothing after it.
func TestBatchStreamShape(t *testing.T) {
	_, ts, _ := newTestServer(t, service.Config{Workers: 2})
	body := `{"pairs":[
		{"p":"a!.b!","q":"a!.b!","rel":"labelled","timeout_ms":30000},
		{"p":"a!","q":"b!","rel":"labelled","timeout_ms":30000}]}`
	resp, err := http.Post(ts.URL+"/v1/equiv/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q, want application/x-ndjson", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []string
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 3 {
		t.Fatalf("%d stream lines, want 2 items + 1 trailer", len(lines))
	}
	seen := map[int]bool{}
	for _, line := range lines[:2] {
		var item service.BatchItem
		if err := json.Unmarshal([]byte(line), &item); err != nil {
			t.Fatalf("item line %q: %v", line, err)
		}
		if item.Equiv == nil || seen[item.Index] {
			t.Fatalf("item line %q: missing verdict or duplicate index", line)
		}
		seen[item.Index] = true
	}
	var trailer service.BatchTrailer
	if err := json.Unmarshal([]byte(lines[2]), &trailer); err != nil {
		t.Fatal(err)
	}
	if !trailer.Done || trailer.Total != 2 || trailer.Succeeded != 2 {
		t.Errorf("trailer %+v, want done=true total=2 succeeded=2", trailer)
	}
}

// TestBatchRunsOnWorkerGoroutines: a batch runs its admitted pairs on at
// most Workers goroutines, in index order, so 48 pairs queued behind a
// held worker add a few goroutines, not one per pair; and the last pair,
// whose deadline passes while it waits for a goroutine, answers
// deadline_exceeded without its unparsable term being parsed.
func TestBatchRunsOnWorkerGoroutines(t *testing.T) {
	srv, _, cl := newTestServer(t, service.Config{Workers: 1})
	release, eb := srv.Hold(true)
	if eb != nil {
		t.Fatal(eb)
	}
	const n = 48
	var pairs []bpi.EquivRequest
	for i := 0; i < n-1; i++ {
		src := "w" + strconv.Itoa(i) + "!"
		pairs = append(pairs, bpi.EquivRequest{P: src, Q: src, Rel: cert.RelLabelled, TimeoutMs: 30000})
	}
	pairs = append(pairs, bpi.EquivRequest{P: "a!(", Q: "a!", Rel: cert.RelLabelled, TimeoutMs: 20})

	base := runtime.NumGoroutine()
	type result struct {
		res *bpi.BatchResult
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: pairs})
		done <- result{res, err}
	}()
	for srv.GateStats().Inflight < 1+n {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // the last pair's deadline passes
	extra := runtime.NumGoroutine() - base
	release()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if extra >= n/2 {
		t.Errorf("a batch of %d pairs behind one held worker ran %d more goroutines", n, extra)
	}
	if tr := r.res.Trailer; tr.Succeeded != n-1 || tr.Failed != 1 {
		t.Fatalf("trailer %+v, want %d succeeded and 1 failed", tr, n-1)
	}
	if last := r.res.Items[n-1]; last.Error == nil || last.Error.Code != service.CodeDeadline {
		t.Fatalf("last pair: %+v, want deadline_exceeded without a parse", last)
	}
}

// FuzzBatch feeds request bodies of at most 8 KiB to POST /v1/equiv/batch
// on a fresh daemon per input. The handler must not panic, and must answer
// either a 4xx error envelope with a known code, or a 200 NDJSON stream in
// which every line decodes, item indices are distinct and in [0, total),
// and exactly one trailer comes last with succeeded + failed + shed ==
// total.
//
// Terms are held to the daemon's one cap, ledger.MaxTermBytes, which the
// 8 KiB body bound keeps every term far under. Transition derivation
// ignores deadlines (ROADMAP item 2b), so a wide term could still run past
// the 50 ms MaxTimeout; that cost is not what this target checks, the
// handling of the body is.
//
// The 848-byte seed asks for a?(x0,…,x10).0 | b0! | … | b51! against
// itself: 64^11 payloads, which wrapped the product of a payload list built
// whole to 0 and panicked the item's goroutine, killing the daemon.
func FuzzBatch(f *testing.F) {
	pair := `{"p":"a!.b!","q":"a!.b!","rel":"labelled"}`
	wide := "a?(x0,x1,x2,x3,x4,x5,x6,x7,x8,x9,x10).0"
	for i := 0; i < 52; i++ {
		wide += " | b" + strconv.Itoa(i) + "!"
	}
	for _, seed := range []string{
		`{"pairs":[{"p":"` + wide + `","q":"` + wide + `","rel":"labelled","timeout_ms":1000}]}`,
		`{"pairs":[` + pair + `,{"p":"a?(x).x!","q":"a?(y).y!","rel":"barbed","weak":true},{"p":"a!","q":"b!","rel":"onestep"}]}`,
		`{}`,
		`{"pairs":[]}`,
		`{"pairs":[` + pair + `],"bogus":1}`,
		`{"pairs":[` + strings.Repeat(pair+",", 8) + pair + `]}`,
		`{"pairs":[{"p":"a!(","q":"a!","rel":"labelled"}]}`,
	} {
		f.Add([]byte(seed))
	}
	known := map[string]bool{}
	for _, c := range []string{service.CodeInvalidRequest, service.CodeParseError, service.CodeTermTooLarge,
		service.CodeBudgetExhausted, service.CodeDeadline, service.CodeQueueFull, service.CodeNotFound,
		service.CodeInternal, service.CodePending, service.CodeDeadlineBudget, service.CodeDraining} {
		known[c] = true
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 8<<10 {
			return
		}
		h := service.New(service.Config{Workers: 2, BatchMax: 8, MaxTimeout: 50 * time.Millisecond}).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/equiv/batch", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			var er struct {
				Error service.ErrorBody `json:"error"`
			}
			if rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &er) != nil || !known[er.Error.Code] {
				t.Fatalf("status %d body %q: want 200, or a 4xx envelope with a known code", rec.Code, rec.Body)
			}
			return
		}
		lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
		var tr service.BatchTrailer
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil || !tr.Done {
			t.Fatalf("last line %q is not a trailer (%v)", lines[len(lines)-1], err)
		}
		items := lines[:len(lines)-1]
		if tr.Total != len(items) || tr.Succeeded+tr.Failed+tr.Shed != tr.Total {
			t.Fatalf("trailer %+v does not account for its %d items", tr, len(items))
		}
		seen := map[int]bool{}
		for _, line := range items {
			var item service.BatchItem
			dec := json.NewDecoder(strings.NewReader(line))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&item); err != nil {
				t.Fatalf("item line %q: %v", line, err)
			}
			if item.Index < 0 || item.Index >= tr.Total || seen[item.Index] {
				t.Fatalf("item index %d repeated or outside [0, %d)", item.Index, tr.Total)
			}
			seen[item.Index] = true
			if item.Error != nil && !known[item.Error.Code] {
				t.Fatalf("item %d: unknown code %q", item.Index, item.Error.Code)
			}
		}
	})
}
