package service_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bpi/internal/cert"
	"bpi/internal/obs"
	"bpi/internal/service"
)

func collectSpanNames(ns []*obs.Node, into map[string]bool) {
	for _, n := range ns {
		into[n.Name] = true
		collectSpanNames(n.Children, into)
	}
}

// traceOf fetches GET /trace/{id}, failing the test unless it answers 200.
func traceOf(t *testing.T, ts *httptest.Server, id string) service.TraceResponse {
	t.Helper()
	resp, body := get(t, ts, "/trace/"+id)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /trace/%s: status %d body %s", id, resp.StatusCode, body)
	}
	var tr service.TraceResponse
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.ID != id {
		t.Fatalf("GET /trace/%s answered trace %q", id, tr.ID)
	}
	return tr
}

// tracedPost posts one request to a gated endpoint and returns the id in
// its X-Trace-Id header.
func tracedPost(t *testing.T, ts *httptest.Server, path, body string) string {
	t.Helper()
	resp, raw := post(t, ts, path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d body %s", path, resp.StatusCode, raw)
	}
	id := resp.Header.Get(service.TraceHeader)
	if id == "" {
		t.Fatalf("POST %s answered without %s", path, service.TraceHeader)
	}
	return id
}

// TestTraceEndpoint: every gated path files its own span tree under the id
// it answers with. A /v1/equiv of a pair not asked before holds the pair
// engine's spans and counters; a batch item's trace_id names the same
// shape; /v1/prove holds the prover's root span; an unknown id answers
// 404.
func TestTraceEndpoint(t *testing.T) {
	_, ts, client := newTestServer(t, service.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	eq := traceOf(t, ts, tracedPost(t, ts, "/v1/equiv", `{"p":"a!.b!","q":"a!.b! + a!.b!","rel":"labelled"}`))
	if eq.Endpoint != "/v1/equiv" {
		t.Errorf("endpoint %q, want /v1/equiv", eq.Endpoint)
	}
	if eq.Counters["equiv.pairs_expanded"] <= 0 {
		t.Errorf("counters = %v, want equiv.pairs_expanded > 0", eq.Counters)
	}
	names := map[string]bool{}
	collectSpanNames(eq.Spans, names)
	for _, want := range []string{"equiv.run", "equiv.explore", "equiv.expand", "equiv.fixpoint"} {
		if !names[want] {
			t.Errorf("span tree lacks %q (have %v)", want, names)
		}
	}

	// The same pair shape over other names: no cache hit, the same tree.
	res, err := client.Batch(ctx, service.BatchRequest{Pairs: []service.EquivRequest{
		{P: "c!.d!", Q: "c!.d! + c!.d!", Rel: cert.RelLabelled},
	}})
	if err != nil {
		t.Fatal(err)
	}
	item := res.Items[0]
	if item.Error != nil || item.Equiv.Cached || item.TraceID == "" {
		t.Fatalf("batch item %+v, want a fresh verdict with a trace id", item)
	}
	bt := traceOf(t, ts, item.TraceID)
	if bt.Endpoint != "/v1/equiv/batch" {
		t.Errorf("endpoint %q, want /v1/equiv/batch", bt.Endpoint)
	}
	if got, want := obs.RenderNames(bt.Spans), obs.RenderNames(eq.Spans); got != want {
		t.Errorf("batch item span tree:\n%s\nwant the /v1/equiv shape:\n%s", got, want)
	}

	pv := traceOf(t, ts, tracedPost(t, ts, "/v1/prove", `{"p":"a! + a!","q":"a!"}`))
	names = map[string]bool{}
	collectSpanNames(pv.Spans, names)
	if pv.Endpoint != "/v1/prove" || !names["axioms.decide"] {
		t.Errorf("/v1/prove: trace of %s with spans %v, want axioms.decide", pv.Endpoint, names)
	}

	if resp, body := get(t, ts, "/trace/999"); resp.StatusCode != http.StatusNotFound || errCode(t, body) != service.CodeNotFound {
		t.Errorf("GET /trace/999: status %d body %s, want 404 not_found", resp.StatusCode, body)
	}
}

// TestTraceRingBounded: the daemon keeps the traces of the 256 most recent
// gated requests, evicting the oldest first, and an evicted id answers
// not_found. A verdict-cache hit is gated too, so it takes an id.
func TestTraceRingBounded(t *testing.T) {
	_, ts, _ := newTestServer(t, service.Config{})
	ids := make([]string, 259)
	seen := map[string]bool{}
	for i := range ids {
		ids[i] = tracedPost(t, ts, "/v1/equiv", `{"p":"a!.b!","q":"a!.b!","rel":"labelled"}`)
		if seen[ids[i]] {
			t.Fatalf("trace id %s answered twice", ids[i])
		}
		seen[ids[i]] = true
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < 3 {
			want = http.StatusNotFound
		}
		if resp, body := get(t, ts, "/trace/"+id); resp.StatusCode != want {
			t.Errorf("trace %d (%s): status %d body %s, want %d", i, id, resp.StatusCode, body, want)
		}
	}
}

// TestPprofEndpoints asserts the pprof surface is mounted: the index and
// the goroutine profile respond 200 on the daemon mux.
func TestPprofEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, service.Config{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d want 200", path, resp.StatusCode)
		}
	}
}

// TestMetricsEngineEvents asserts that engine counters from served
// requests surface as bpid_engine_events_total series on /metrics, and the
// store counters once, as the bpid_store_* series only.
func TestMetricsEngineEvents(t *testing.T) {
	_, ts, client := newTestServer(t, service.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := client.Equiv(ctx, service.EquivRequest{P: "a!.b!", Q: "a!.b!", Rel: cert.RelLabelled}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`bpid_engine_events_total{name="equiv.pairs_expanded"}`,
		"bpid_store_intern_misses_total",
		"bpid_trace_spans_dropped_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition lacks %s", want)
		}
	}
	if strings.Contains(text, `name="store.`) {
		t.Errorf("metrics exposition exports a store counter twice:\n%s", text)
	}
}
