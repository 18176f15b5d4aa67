package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRouteTable pins bpid's HTTP surface: each request below reaches the
// route named, and a request that reaches none answers the status named.
// The daemon serves only the decisions that share its store, cache and
// ledger; parsing, stepping, exploring and running a term are `bpi
// fmt|steps|explore|run`, so their old routes answer 404.
func TestRouteTable(t *testing.T) {
	mux, ok := New(Config{}).Handler().(*http.ServeMux)
	if !ok {
		t.Fatal("Handler is not a *http.ServeMux")
	}
	for _, tc := range []struct {
		method, path, pattern string
		status                int // of a request that reaches no route
	}{
		{method: "POST", path: "/v1/equiv", pattern: "POST /v1/equiv"},
		{method: "POST", path: "/v1/equiv/batch", pattern: "POST /v1/equiv/batch"},
		{method: "POST", path: "/v1/prove", pattern: "POST /v1/prove"},
		{method: "GET", path: "/trace/7", pattern: "GET /trace/{id}"},
		{method: "GET", path: "/v1/ledger/stats", pattern: "GET /v1/ledger/stats"},
		{method: "GET", path: "/v1/ledger/proof/ab12", pattern: "GET /v1/ledger/proof/{key}"},
		{method: "GET", path: "/healthz", pattern: "GET /healthz"},
		{method: "GET", path: "/metrics", pattern: "GET /metrics"},
		{method: "GET", path: "/debug/pprof/", pattern: "GET /debug/pprof/"},
		{method: "GET", path: "/debug/pprof/heap", pattern: "GET /debug/pprof/"},
		{method: "GET", path: "/debug/pprof/cmdline", pattern: "GET /debug/pprof/cmdline"},
		{method: "GET", path: "/debug/pprof/profile", pattern: "GET /debug/pprof/profile"},
		{method: "GET", path: "/debug/pprof/symbol", pattern: "GET /debug/pprof/symbol"},
		{method: "GET", path: "/debug/pprof/trace", pattern: "GET /debug/pprof/trace"},
		{method: "POST", path: "/v1/parse", status: http.StatusNotFound},
		{method: "POST", path: "/v1/step", status: http.StatusNotFound},
		{method: "POST", path: "/v1/explore", status: http.StatusNotFound},
		{method: "POST", path: "/v1/run", status: http.StatusNotFound},
		{method: "GET", path: "/v1/equiv", status: http.StatusMethodNotAllowed},
	} {
		r := httptest.NewRequest(tc.method, tc.path, nil)
		if _, got := mux.Handler(r); got != tc.pattern {
			t.Errorf("%s %s reaches %q, want %q", tc.method, tc.path, got, tc.pattern)
		}
		if tc.pattern != "" {
			continue
		}
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, r)
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.status)
		}
	}
}
