package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	bpi "bpi"
	"bpi/internal/cert"
	"bpi/internal/cluster"
	"bpi/internal/ledger"
	"bpi/internal/parser"
	"bpi/internal/service"
)

// The chaos suite: a two-node cluster where the peer that OWNS the queried
// pair is faulty — dead, hanging, or actively lying. The fail-closed
// contract under test: the victim node must always return the correct
// verdict (by local fallback), must never cache anything a faulty peer
// said, and must account the failure on the right bpid_cluster_* counter.

// startVictimNode boots a real service on a pre-bound loopback listener so
// its own URL can appear in its peer list next to the (faulty) peer.
func startVictimNode(t *testing.T, peerURL string) (*service.Server, *bpi.Client, string) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + lis.Addr().String()
	srv := service.New(service.Config{
		Workers:     2,
		Peers:       []string{self, peerURL},
		SelfURL:     self,
		PeerTimeout: 250 * time.Millisecond,
	})
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(lis) //nolint:errcheck // Serve returns ErrServerClosed on shutdown
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
		hs.Close()
	})
	return srv, bpi.NewClient(self), self
}

// pairOwnedByPeer searches deterministic candidate terms for one whose
// canonical pair key rendezvous-hashes to the peer, so every scenario is
// guaranteed to exercise the remote dispatch path. The pair is (p, p):
// trivially related, so the correct verdict is known without an oracle.
func pairOwnedByPeer(t *testing.T, self, peer string, weak bool) string {
	t.Helper()
	r, err := cluster.NewRouter(self, []string{self, peer})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		src := fmt.Sprintf("c%d!.d%d!", i, i)
		p, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if r.Owner(ledger.QueryKey(service.RelLabelled, weak, p, p)) == peer {
			return src
		}
	}
	t.Fatal("no candidate pair owned by the peer in 256 draws")
	return ""
}

// refusedPeer returns a URL whose listener is already closed: every dial
// gets connection refused — the killed-peer scenario.
func refusedPeer(t *testing.T) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + lis.Addr().String()
	lis.Close()
	return url
}

// lorisPeer accepts the request and then hangs without answering until the
// caller gives up — the slow-loris scenario (the victim's PeerTimeout must
// cut the dispatch, not the test's patience).
func lorisPeer(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Well past the victim's 250ms PeerTimeout; the second arm bounds
		// server teardown when the aborted connection is slow to surface.
		select {
		case <-r.Context().Done():
		case <-time.After(2 * time.Second):
		}
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// tamperingPeer proxies /v1/equiv to an honest backing node and lets the
// scenario mutate the (verdict, certificate) response before the victim
// sees it — the compromised-peer scenarios.
func tamperingPeer(t *testing.T, backingURL string, tamper func(*service.EquivResponse)) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		resp, err := http.Post(backingURL+r.URL.Path, "application/json", bytes.NewReader(body))
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		var er service.EquivResponse
		if err := json.Unmarshal(raw, &er); err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		tamper(&er)
		out, err := json.Marshal(er)
		if err != nil {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// spareCert computes an honest certificate for an unrelated pair — raw
// material for the wrong-pair replay scenario.
func spareCert(t *testing.T, cl *bpi.Client) *cert.Certificate {
	t.Helper()
	resp, err := cl.Equiv(context.Background(), bpi.EquivRequest{
		P: "spare!.x!", Q: "spare!.x!", Rel: service.RelLabelled,
		Cert: true, TimeoutMs: 30000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Certificate == nil {
		t.Fatal("backing node returned no certificate")
	}
	return resp.Certificate
}

func TestClusterChaosFailClosed(t *testing.T) {
	// One honest backing node feeds all tampering proxies.
	backing, backingTS, backingCl := newTestServer(t, service.Config{Workers: 1})
	_ = backing
	scenarios := []struct {
		name string
		peer func(t *testing.T) string
		// Exactly one of these counters must move, by exactly one.
		wantRemoteFail bool
		wantCertReject bool
	}{
		{
			name:           "connection-refused",
			peer:           refusedPeer,
			wantRemoteFail: true,
		},
		{
			name:           "slow-loris",
			peer:           lorisPeer,
			wantRemoteFail: true,
		},
		{
			name: "tampered-cert-bytes",
			peer: func(t *testing.T) string {
				return tamperingPeer(t, backingTS.URL, func(er *service.EquivResponse) {
					// Corrupt the evidence, not the claims: verdict and
					// certificate still agree, but the replay is broken.
					if er.Certificate != nil && len(er.Certificate.Terms) > 0 {
						er.Certificate.Terms[0] = "tampered("
					}
				})
			},
			wantCertReject: true,
		},
		{
			name: "lying-verdict",
			peer: func(t *testing.T) string {
				return tamperingPeer(t, backingTS.URL, func(er *service.EquivResponse) {
					// The peer flips the verdict but cannot forge matching
					// evidence: certificate/verdict mismatch.
					er.Related = !er.Related
				})
			},
			wantCertReject: true,
		},
		{
			name: "wrong-pair-certificate",
			peer: func(t *testing.T) string {
				spare := spareCert(t, backingCl)
				return tamperingPeer(t, backingTS.URL, func(er *service.EquivResponse) {
					// A perfectly valid proof — about some other pair.
					er.Certificate = spare
				})
			},
			wantCertReject: true,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			peerURL := sc.peer(t)
			srv, cl, self := startVictimNode(t, peerURL)
			src := pairOwnedByPeer(t, self, peerURL, false)
			req := bpi.EquivRequest{P: src, Q: src, Rel: service.RelLabelled, TimeoutMs: 30000}

			resp, err := cl.Equiv(context.Background(), req)
			if err != nil {
				t.Fatalf("faulty peer leaked as an error: %v", err)
			}
			if !resp.Related {
				t.Fatalf("wrong verdict under %s: p ~ p came back unrelated", sc.name)
			}
			if resp.Peer != "" {
				t.Fatalf("verdict attributed to peer %q, want local fallback", resp.Peer)
			}
			cs := srv.Cluster()
			if cs.RemoteOK != 0 {
				t.Errorf("RemoteOK = %d, want 0 (nothing acceptable came from the peer)", cs.RemoteOK)
			}
			if cs.LocalFallback != 1 {
				t.Errorf("LocalFallback = %d, want 1", cs.LocalFallback)
			}
			if got, want := cs.RemoteFail, boolCount(sc.wantRemoteFail); got != want {
				t.Errorf("RemoteFail = %d, want %d", got, want)
			}
			if got, want := cs.CertRejected, boolCount(sc.wantCertReject); got != want {
				t.Errorf("CertRejected = %d, want %d", got, want)
			}

			// Nothing the faulty peer said may have been cached: the
			// repeat query must hit the cache and still be correct.
			resp2, err := cl.Equiv(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if !resp2.Cached || !resp2.Related || resp2.Peer != "" {
				t.Fatalf("repeat query: cached=%t related=%t peer=%q, want cached local truth",
					resp2.Cached, resp2.Related, resp2.Peer)
			}
			if cs2 := srv.Cluster(); cs2 != cs {
				t.Errorf("cache hit moved cluster counters: %+v -> %+v", cs, cs2)
			}
		})
	}
}

func boolCount(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestClusterChaosMidBatch kills the owning peer for a whole batch: every
// pair the dead peer owned falls back locally, no item errors, and the
// trailer reports zero remote-served pairs.
func TestClusterChaosMidBatch(t *testing.T) {
	peerURL := refusedPeer(t)
	srv, cl, self := startVictimNode(t, peerURL)
	router, err := cluster.NewRouter(self, []string{self, peerURL})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []bpi.EquivRequest
	owned := 0
	for i := 0; i < 64 && len(pairs) < 8; i++ {
		src := fmt.Sprintf("m%d!.n%d!", i, i)
		p, perr := parser.Parse(src)
		if perr != nil {
			t.Fatal(perr)
		}
		if router.Owner(ledger.QueryKey(service.RelLabelled, false, p, p)) == peerURL {
			owned++
		}
		pairs = append(pairs, bpi.EquivRequest{P: src, Q: src, Rel: service.RelLabelled, TimeoutMs: 30000})
	}
	if owned == 0 {
		t.Fatal("no batch pair owned by the dead peer; widen the candidate set")
	}
	res, err := cl.Batch(context.Background(), bpi.BatchRequest{Pairs: pairs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trailer.Succeeded != len(pairs) || res.Trailer.Failed != 0 || res.Trailer.Shed != 0 {
		t.Fatalf("trailer %+v, want all %d succeeded", res.Trailer, len(pairs))
	}
	if res.Trailer.Remote != 0 {
		t.Errorf("trailer counts %d remote-served pairs with a dead peer", res.Trailer.Remote)
	}
	for _, it := range res.Items {
		if it.Error != nil || it.Equiv == nil || !it.Equiv.Related || it.Equiv.Peer != "" {
			t.Fatalf("item %d: %+v, want correct local verdict", it.Index, it)
		}
	}
	cs := srv.Cluster()
	if cs.RemoteFail != uint64(owned) || cs.LocalFallback != uint64(owned) {
		t.Errorf("RemoteFail=%d LocalFallback=%d, want both %d (pairs owned by the dead peer)",
			cs.RemoteFail, cs.LocalFallback, owned)
	}
	if cs.CertRejected != 0 || cs.RemoteOK != 0 {
		t.Errorf("CertRejected=%d RemoteOK=%d, want 0/0", cs.CertRejected, cs.RemoteOK)
	}
}

// TestClusterHealthyPeerAccepted is the chaos suite's control: with an
// honest (proxied but untampered) peer, the remote verdict IS accepted,
// attributed, counted on RemoteOK — and the victim caches it.
func TestClusterHealthyPeerAccepted(t *testing.T) {
	_, backingTS, _ := newTestServer(t, service.Config{Workers: 1})
	peerURL := tamperingPeer(t, backingTS.URL, func(*service.EquivResponse) {})
	srv, cl, self := startVictimNode(t, peerURL)
	src := pairOwnedByPeer(t, self, peerURL, false)
	req := bpi.EquivRequest{P: src, Q: src, Rel: service.RelLabelled, TimeoutMs: 30000}

	resp, err := cl.Equiv(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Related || resp.Peer != peerURL {
		t.Fatalf("related=%t peer=%q, want remote-accepted verdict from %s", resp.Related, resp.Peer, peerURL)
	}
	cs := srv.Cluster()
	if cs.RemoteOK != 1 || cs.RemoteFail != 0 || cs.CertRejected != 0 || cs.LocalFallback != 0 {
		t.Errorf("counters %+v, want exactly one accepted remote verdict", cs)
	}
	resp2, err := cl.Equiv(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp2.Cached || !resp2.Related {
		t.Fatalf("repeat query: cached=%t related=%t, want the accepted verdict cached", resp2.Cached, resp2.Related)
	}
}
