package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/names"
	"bpi/internal/service"
	"bpi/internal/stress"
	"bpi/internal/syntax"
)

// TestDaemonHeapBounded asks one daemon 500 fresh step queries, each
// stress.Mesh(8) against its rotation with the free names suffixed per
// query, so no query shares a term with another and each misses the
// verdict cache. Every decision runs on a store of its own, so after GC
// the heap holds only the LRU's entries: it must grow by less than 16 MB.
// A store that outlives its request keeps every term it interned, about
// 45 MB over these queries.
func TestDaemonHeapBounded(t *testing.T) {
	_, _, cl := newTestServer(t, service.Config{Workers: 2})
	ctx := context.Background()
	mesh := stress.Mesh(8)
	ask := func(i int) {
		ren := names.Subst{}
		for _, x := range syntax.FreeNames(mesh).Sorted() {
			ren[x] = names.Name(fmt.Sprintf("%sq%d", x, i))
		}
		p := syntax.Apply(mesh, ren)
		r, err := cl.Equiv(ctx, bpi.EquivRequest{P: syntax.String(p), Q: syntax.String(stress.Rotate(p)), Rel: cert.RelStep})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !r.Related || r.Cached {
			t.Fatalf("query %d: related=%v cached=%v, want a fresh related verdict", i, r.Related, r.Cached)
		}
	}
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	ask(0) // the connection and the server's buffers, before the baseline
	before := heapInuse()
	const queries = 500
	for i := 1; i <= queries; i++ {
		ask(i)
	}
	after := heapInuse()
	if grown := float64(after) - float64(before); grown >= 16<<20 {
		t.Errorf("heap in use grew %.1f MB over %d fresh queries, want under 16 MB", grown/(1<<20), queries)
	}
}

// TestAnswerSpellingPerRequest: an uncached answer depends only on its
// request. After the daemon has answered a labelled query of
// c?(x).nu z.x!(z) | b! against itself, its answer for c?(y).nu w.y!(w)
// against c?(y).0 — an α-variant of a term the first query interned —
// must carry the Reason and certificate bytes a fresh daemon gives. A
// store shared across requests spells the reception derivative as first
// interned, nu z.c!(z).
func TestAnswerSpellingPerRequest(t *testing.T) {
	ctx := context.Background()
	_, _, warm := newTestServer(t, service.Config{})
	if _, err := warm.Equiv(ctx, bpi.EquivRequest{P: "c?(x).nu z.x!(z) | b!", Q: "c?(x).nu z.x!(z) | b!", Rel: cert.RelLabelled}); err != nil {
		t.Fatal(err)
	}
	req := bpi.EquivRequest{P: "c?(y).nu w.y!(w)", Q: "c?(y).0", Rel: cert.RelLabelled, Cert: true}
	got, err := warm.Equiv(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, _, fresh := newTestServer(t, service.Config{})
	want, err := fresh.Equiv(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cached || got.Related || got.Certificate == nil {
		t.Fatalf("cached=%v related=%v certified=%v, want a fresh certified negative verdict",
			got.Cached, got.Related, got.Certificate != nil)
	}
	if got.Reason != want.Reason {
		t.Errorf("Reason after an earlier request:\n  %s\nfresh daemon:\n  %s", got.Reason, want.Reason)
	}
	gb, err := json.Marshal(got.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want.Certificate)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Errorf("certificate after an earlier request:\n  %s\nfresh daemon:\n  %s", gb, wb)
	}
}
