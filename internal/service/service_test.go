package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/ledger"
	"bpi/internal/service"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server, *bpi.Client) {
	t.Helper()
	srv := service.New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts, bpi.NewClient(ts.URL)
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	return readBody(t, resp, err)
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	return readBody(t, resp, err)
}

func readBody(t *testing.T, resp *http.Response, err error) (*http.Response, string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.String()
}

func errCode(t *testing.T, body string) string {
	t.Helper()
	var er struct {
		Error service.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatalf("not an error envelope: %s", body)
	}
	return er.Error.Code
}

// TestHandlerValidation table-tests the typed error surface: bad JSON,
// missing terms, a term one byte past ledger.MaxTermBytes, parse errors,
// unknown relations. A failure the request caused answers a typed 4xx,
// never 500 internal: a call to an undefined identifier, or to a defined
// one with the wrong arity, is invalid_request on every endpoint that
// parses a term, batch items included, and so is a recursive term on
// /v1/prove; a goal past one of the prover's budgets is budget_exhausted.
func TestHandlerValidation(t *testing.T) {
	env := syntax.Env{}.Define("Tick", []syntax.Name{"x"}, syntax.SendN("x"))
	_, ts, cl := newTestServer(t, service.Config{Env: env})
	pastCap := strings.Repeat("a!.", ledger.MaxTermBytes/3) + "0 "
	if len(pastCap) != ledger.MaxTermBytes+1 {
		t.Fatalf("the oversized term is %d bytes, want %d", len(pastCap), ledger.MaxTermBytes+1)
	}
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
	}{
		{"bad json", "/v1/equiv", `{"p": "a!"`, http.StatusBadRequest, service.CodeInvalidRequest},
		{"unknown field", "/v1/equiv", `{"p":"a!","q":"a!","rel":"labelled","bogus":1}`,
			http.StatusBadRequest, service.CodeInvalidRequest},
		{"missing term", "/v1/equiv", `{"q":"a!","rel":"labelled"}`,
			http.StatusBadRequest, service.CodeInvalidRequest},
		{"parse error", "/v1/equiv", `{"p":"a!(","q":"a!","rel":"labelled"}`,
			http.StatusBadRequest, service.CodeParseError},
		{"unknown relation", "/v1/equiv", `{"p":"a!","q":"a!","rel":"telepathic"}`,
			http.StatusBadRequest, service.CodeInvalidRequest},
		{"oversized term", "/v1/equiv", `{"p":"` + pastCap + `","q":"a!","rel":"labelled"}`,
			http.StatusRequestEntityTooLarge, service.CodeTermTooLarge},
		{"prove missing term", "/v1/prove", `{"p":"a!"}`,
			http.StatusBadRequest, service.CodeInvalidRequest},
		{"equiv undefined", "/v1/equiv", `{"p":"Foo(a)","q":"0","rel":"labelled"}`, http.StatusBadRequest, service.CodeInvalidRequest},
		{"prove undefined", "/v1/prove", `{"p":"Foo(a)","q":"0"}`, http.StatusBadRequest, service.CodeInvalidRequest},
		{"equiv arity", "/v1/equiv", `{"p":"a!.Tick(a, b)","q":"0","rel":"labelled"}`, http.StatusBadRequest, service.CodeInvalidRequest},
		{"prove arity", "/v1/prove", `{"p":"a!","q":"Tick(a, b)"}`, http.StatusBadRequest, service.CodeInvalidRequest},
		{"prove world budget", "/v1/prove", `{"p":"a!|b!|c!|d!|e!|f!","q":"a!|b!|c!|d!|e!|f!"}`,
			http.StatusUnprocessableEntity, service.CodeBudgetExhausted},
		{"prove step budget", "/v1/prove", `{"p":"a! + a!","q":"a!","max_steps":1}`,
			http.StatusUnprocessableEntity, service.CodeBudgetExhausted},
		{"prove non-finite term", "/v1/prove", `{"p":"(rec X(a). a!.X(a))(a)","q":"a!"}`,
			http.StatusBadRequest, service.CodeInvalidRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts, tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d want %d (%s)", resp.StatusCode, tc.wantStatus, body)
			}
			if got := errCode(t, body); got != tc.wantCode {
				t.Fatalf("code = %q want %q (%s)", got, tc.wantCode, body)
			}
		})
	}
	t.Run("unknown relation message", func(t *testing.T) {
		_, body := post(t, ts, "/v1/equiv", `{"p":"a!","q":"a!","rel":"x"}`)
		var er struct {
			Error service.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &er); err != nil {
			t.Fatal(err)
		}
		if want := `unknown relation "x" (want labelled|barbed|step|onestep|congruence)`; er.Error.Message != want {
			t.Errorf("message %q, want %q", er.Error.Message, want)
		}
		// The relation is refused before it keys the verdict cache, whose
		// per-relation counters must not gain a label per bogus name.
		if _, metrics := get(t, ts, "/metrics"); strings.Contains(metrics, `rel="x"`) {
			t.Errorf("/metrics counts the refused relation:\n%s", metrics)
		}
	})
	t.Run("batch item undefined", func(t *testing.T) {
		res, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: []bpi.EquivRequest{
			{P: "Foo(a)", Q: "0", Rel: cert.RelLabelled},
			{P: "Tick(a)", Q: "a!", Rel: cert.RelLabelled},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if eb := res.Items[0].Error; eb == nil || eb.Code != service.CodeInvalidRequest {
			t.Errorf("undefined item: %+v, want invalid_request", res.Items[0])
		}
		if it := res.Items[1]; it.Error != nil || !it.Equiv.Related {
			t.Errorf("defined item: %+v, want Tick(a) ~ a!", it)
		}
	})
}

// TestEndpointsHappyPath exercises each endpoint once through the client.
func TestEndpointsHappyPath(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{})
	ctx := context.Background()

	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	// S3 idempotence holds up to strong bisimilarity.
	eq, err := cl.Equiv(ctx, bpi.EquivRequest{P: "a! + a!", Q: "a!", Rel: cert.RelLabelled})
	if err != nil {
		t.Fatal(err)
	}
	if !eq.Related {
		t.Fatalf("a!+a! ~ a! expected related: %+v", eq)
	}
	// Distinct outputs are not one-step equivalent.
	os1, err := cl.Equiv(ctx, bpi.EquivRequest{P: "a!", Q: "b!", Rel: cert.RelOneStep})
	if err != nil {
		t.Fatal(err)
	}
	if os1.Related {
		t.Fatal("a! ~+ b! expected NOT related")
	}
	pv, err := cl.Prove(ctx, bpi.ProveRequest{P: "a! + a!", Q: "a!"})
	if err != nil {
		t.Fatal(err)
	}
	if !pv.Proved {
		t.Fatal("A ⊢ a!+a! = a! expected provable (S3)")
	}

	bb, err := cl.Equiv(ctx, bpi.EquivRequest{P: "a?.b!", Q: "a?.b!", Rel: cert.RelBarbed})
	if err != nil {
		t.Fatal(err)
	}
	if !bb.Related {
		t.Fatal("a?.b! ~b a?.b! expected related")
	}
}

// TestVerdictCacheAndMetrics repeats one query and checks (a) the second
// answer is served from the verdict cache and (b) /metrics reports a
// non-zero hit rate and the store gauges.
func TestVerdictCacheAndMetrics(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{})
	ctx := context.Background()
	req := bpi.EquivRequest{P: "a?(x).x!", Q: "a?(y).y!", Rel: cert.RelLabelled}
	first, err := cl.Equiv(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first query cannot be cached")
	}
	second, err := cl.Equiv(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical query must hit the verdict cache")
	}
	if second.Related != first.Related {
		t.Fatal("cache changed the verdict")
	}
	// Symmetric orientation also hits (all relations are symmetric).
	swapped, err := cl.Equiv(ctx, bpi.EquivRequest{P: req.Q, Q: req.P, Rel: req.Rel})
	if err != nil {
		t.Fatal(err)
	}
	if !swapped.Cached {
		t.Fatal("swapped-orientation query must hit the verdict cache")
	}

	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bpid_verdict_cache_hits_total 2",
		"bpid_store_terms",
		"bpid_requests_total{endpoint=\"/v1/equiv\",code=\"ok\"} 3",
		"bpid_request_seconds_bucket",
		"bpid_workers{state=\"total\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
	if strings.Contains(text, "bpid_verdict_cache_hit_rate 0\n") {
		t.Error("hit rate should be non-zero after repeated queries")
	}

	// [a=b]c! simplifies to 0, but the fusion a↦b fires the match, so the
	// ~c key must keep the term as queried: no hit on the 0 ~c 0 entry.
	_, _, fresh := newTestServer(t, service.Config{})
	for _, tc := range []struct {
		p       string
		related bool
	}{{"0", true}, {"[a=b]c!", false}} {
		r, err := fresh.Equiv(ctx, bpi.EquivRequest{P: tc.p, Q: "0", Rel: cert.RelCongruence})
		if err != nil {
			t.Fatal(err)
		}
		if r.Related != tc.related || r.Cached {
			t.Fatalf("%s ~c 0: related=%v cached=%v, want related=%v uncached", tc.p, r.Related, r.Cached, tc.related)
		}
	}
}

// TestDeadlineTypedTimeout sends an expensive pair with a 50ms deadline and
// a pair budget far beyond reach: the daemon must answer 504 with code
// deadline_exceeded — not hang, and not claim budget exhaustion.
func TestDeadlineTypedTimeout(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{})
	start := time.Now()
	_, err := cl.Equiv(context.Background(), bpi.EquivRequest{
		P:         "(rec G(a). a?(x).(x! | G(a)))(a)",
		Q:         "(rec H(b). b?(y).(y! | H(b)))(a) + c!",
		Rel:       cert.RelLabelled,
		MaxPairs:  1 << 30,
		TimeoutMs: 50,
	})
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	apiErr, ok := err.(*bpi.APIError)
	if !ok {
		t.Fatalf("expected *bpi.APIError, got %T: %v", err, err)
	}
	if apiErr.Code != service.CodeDeadline {
		t.Fatalf("code = %q want %q", apiErr.Code, service.CodeDeadline)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("deadline took %s to fire", elapsed)
	}
}

// TestProveDeadlineManyWorlds: the prover meets its deadline however many
// worlds the free names have. a0! | … | a10! against itself has Bell(11) =
// 678,570 worlds; with a 10 ms timeout /v1/prove answers deadline_exceeded
// at once, where building every world before the first deadline check took
// 1.5–1.9 s and 850–890 MB on two CPUs.
func TestProveDeadlineManyWorlds(t *testing.T) {
	_, ts, _ := newTestServer(t, service.Config{})
	parts := make([]string, 11)
	for i := range parts {
		parts[i] = fmt.Sprintf("a%d!", i)
	}
	term := strings.Join(parts, " | ")
	body := fmt.Sprintf(`{"p":%q,"q":%q,"max_names":11,"timeout_ms":10}`, term, term)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	resp, raw := post(t, ts, "/v1/prove", body)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, raw) != service.CodeDeadline {
		t.Fatalf("status %d body %s, want 504 deadline_exceeded", resp.StatusCode, raw)
	}
	if elapsed > 150*time.Millisecond {
		t.Errorf("answered after %s, want under 150ms", elapsed)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 64 {
		t.Errorf("allocated %.1f MB, want under 64 MB", mb)
	}
}

// TestBudgetTypedError checks budget exhaustion keeps its own code.
func TestBudgetTypedError(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{})
	_, err := cl.Equiv(context.Background(), bpi.EquivRequest{
		P:        "(rec G(a). a?(x).(x! | G(a)))(a)",
		Q:        "(rec H(b). b?(y).(y! | H(b)))(a) + c!",
		Rel:      cert.RelLabelled,
		MaxPairs: 16,
	})
	apiErr, ok := err.(*bpi.APIError)
	if !ok {
		t.Fatalf("expected *bpi.APIError, got %T: %v", err, err)
	}
	if apiErr.Code != service.CodeBudgetExhausted {
		t.Fatalf("code = %q want %q", apiErr.Code, service.CodeBudgetExhausted)
	}
}

// slowEquiv is a step query of stress.Mesh(16) against its rotation with
// the pair budget lifted: 48,802 pairs, about 0.2 s on two CPUs.
func slowEquiv() bpi.EquivRequest {
	p := stress.Mesh(16)
	return bpi.EquivRequest{P: syntax.String(p), Q: syntax.String(stress.Rotate(p)),
		Rel: cert.RelStep, MaxPairs: 1 << 22, TimeoutMs: 10000}
}

// TestGracefulShutdownDrains starts a slow query, then shuts the server
// down: the drain must wait for the query to finish and answer, new work
// must be refused with the retryable draining shed, and no goroutine may
// outlive the drain.
func TestGracefulShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, ts, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	type answer struct {
		eq  *bpi.EquivResponse
		err error
	}
	answered := make(chan answer, 1)
	go func() {
		eq, err := cl.Equiv(ctx, slowEquiv())
		answered <- answer{eq, err}
	}()
	poll(t, "the query to be admitted", func() bool { return srv.GateStats().Inflight == 1 })
	sctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if st := srv.GateStats(); st.Inflight != 0 {
		t.Fatalf("drain returned with %d admitted requests unfinished", st.Inflight)
	}
	if a := <-answered; a.err != nil || !a.eq.Related || a.eq.Pairs != 48802 {
		t.Fatalf("drained query: %+v, %v", a.eq, a.err)
	}
	// A new query is shed with the retryable draining cause (429 +
	// Retry-After).
	_, err := cl.Equiv(ctx, bpi.EquivRequest{P: "a!", Q: "a!", Rel: cert.RelLabelled})
	apiErr, ok := err.(*bpi.APIError)
	if !ok || apiErr.Code != service.CodeDraining {
		t.Fatalf("expected draining, got %v", err)
	}
	if apiErr.RetryAfterSec < 1 {
		t.Fatalf("draining shed carries no Retry-After hint: %+v", apiErr)
	}
	ts.Close()
	waitGoroutines(t, before)
}

// waitGoroutines fails the test unless the goroutine count falls back to at
// most before within a short poll.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the drain, %d before:\n%s", runtime.NumGoroutine(), before, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestQueueFull checks the gate bounds unfinished requests with a typed
// error: with the one worker held and the one queue place taken by a
// waiting query, the next query is shed with queue_full.
func TestQueueFull(t *testing.T) {
	srv, _, cl := newTestServer(t, service.Config{Workers: 1, AdmissionQueue: 1})
	release, eb := srv.Hold(true)
	if eb != nil {
		t.Fatal(eb)
	}
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	req := bpi.EquivRequest{P: "a!", Q: "b!", Rel: cert.RelLabelled}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cl.Equiv(ctx, req) //nolint:errcheck // cancelled below
	}()
	defer wg.Wait()
	defer cancel() // the client goes, and its queued query with it
	poll(t, "the query to queue", func() bool { return srv.GateStats().Inflight == 2 })
	_, err := cl.Equiv(context.Background(), req)
	apiErr, ok := err.(*bpi.APIError)
	if !ok || apiErr.Code != service.CodeQueueFull {
		t.Fatalf("expected queue_full, got %v", err)
	}
}

// TestQueuedDeadline: a request's deadline starts on arrival and bounds its
// wait for a worker. With the only worker held, a /v1/equiv with
// timeout_ms 500 answers 504 deadline_exceeded near 500 ms, and a batch of
// two pairs with timeout_ms 300 streams two deadline_exceeded items.
func TestQueuedDeadline(t *testing.T) {
	srv, ts, cl := newTestServer(t, service.Config{Workers: 1})
	release, eb := srv.Hold(true)
	if eb != nil {
		t.Fatal(eb)
	}
	defer release()
	const slack = 400 * time.Millisecond
	hc := &http.Client{Timeout: 5 * time.Second} // a waiting request fails, never hangs
	start := time.Now()
	resp, err := hc.Post(ts.URL+"/v1/equiv", "application/json",
		strings.NewReader(`{"p":"a!","q":"b!","rel":"labelled","timeout_ms":500}`))
	resp, body := readBody(t, resp, err)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout || errCode(t, body) != service.CodeDeadline {
		t.Fatalf("queued /v1/equiv: status %d body %s after %s, want 504 deadline_exceeded", resp.StatusCode, body, elapsed)
	}
	if elapsed < 500*time.Millisecond || elapsed > 500*time.Millisecond+slack {
		t.Errorf("queued /v1/equiv answered after %s, want 500ms plus at most %s", elapsed, slack)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start = time.Now()
	res, err := cl.Batch(ctx, bpi.BatchRequest{Pairs: []bpi.EquivRequest{
		{P: "a!", Q: "b!", Rel: cert.RelLabelled, TimeoutMs: 300},
		{P: "c!", Q: "d!", Rel: cert.RelLabelled, TimeoutMs: 300},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond+slack {
		t.Errorf("queued batch answered after %s, want 300ms plus at most %s", elapsed, slack)
	}
	for _, it := range res.Items {
		if it.Error == nil || it.Error.Code != service.CodeDeadline {
			t.Errorf("item %+v, want deadline_exceeded", it)
		}
	}
	if tr := res.Trailer; tr.Total != 2 || tr.Failed != 2 || tr.Succeeded != 0 || tr.Shed != 0 {
		t.Errorf("trailer %+v, want failed: 2 of 2", tr)
	}
}
