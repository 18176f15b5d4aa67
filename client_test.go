package bpi_test

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	bpi "bpi"
)

// TestClientAgainstEmbeddedService boots the daemon core in-process and
// drives it through the public client: the facade a Go program embedding
// bpid would use.
func TestClientAgainstEmbeddedService(t *testing.T) {
	svc := bpi.NewService(bpi.ServiceConfig{})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	smoke(t, bpi.NewClient(ts.URL))
}

// TestClientAgainstExternalDaemon drives a separately-booted bpid process,
// named by BPID_URL (CI builds cmd/bpid, starts it, and runs this test).
// Skipped when BPID_URL is unset.
func TestClientAgainstExternalDaemon(t *testing.T) {
	url := os.Getenv("BPID_URL")
	if url == "" {
		t.Skip("BPID_URL not set; external daemon smoke runs in CI only")
	}
	smoke(t, bpi.NewClient(url))
}

// smoke runs one pass over the client surface against any live daemon.
func smoke(t *testing.T, cl *bpi.Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	if err := cl.Health(ctx); err != nil {
		t.Fatal(err)
	}
	req := bpi.EquivRequest{P: "a?(x).x!", Q: "a?(y).y!", Rel: "labelled"}
	first, err := cl.Equiv(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Related {
		t.Fatalf("alpha-variants must be bisimilar: %+v", first)
	}
	second, err := cl.Equiv(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatalf("repeat query should be served from the verdict cache: %+v", second)
	}
	pv, err := cl.Prove(ctx, bpi.ProveRequest{P: "a! + a!", Q: "a!"})
	if err != nil {
		t.Fatal(err)
	}
	if !pv.Proved {
		t.Fatal("A ⊢ a!+a! = a! expected provable")
	}
	text, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "bpid_verdict_cache_hits_total") {
		t.Fatalf("metrics missing verdict-cache counters:\n%s", text)
	}
}
