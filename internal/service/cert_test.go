package service_test

import (
	"context"
	"testing"

	"bpi/internal/cert"
	"bpi/internal/service"
)

// TestEquivCertificates exercises the daemon's certificate surface: every
// relation returns a verifying certificate when asked, the cached path
// replays the recorded one, and requests without the flag stay lean.
func TestEquivCertificates(t *testing.T) {
	_, _, client := newTestServer(t, service.Config{})
	ctx := context.Background()

	for _, rel := range cert.Relations {
		for _, weak := range []bool{false, true} {
			req := service.EquivRequest{P: "tau.a!", Q: "a!", Rel: rel, Weak: weak, Cert: true}
			resp, err := client.Equiv(ctx, req)
			if err != nil {
				t.Fatalf("%s weak=%v: %v", rel, weak, err)
			}
			if resp.Certificate == nil {
				t.Fatalf("%s weak=%v: no certificate in response", rel, weak)
			}
			if resp.Certificate.Related != resp.Related {
				t.Fatalf("%s weak=%v: certificate verdict %v, response says %v",
					rel, weak, resp.Certificate.Related, resp.Related)
			}
			if err := cert.Verify(resp.Certificate); err != nil {
				t.Fatalf("%s weak=%v: certificate rejected: %v", rel, weak, err)
			}

			// The cached path must return the recorded certificate.
			again, err := client.Equiv(ctx, req)
			if err != nil {
				t.Fatalf("%s weak=%v cached: %v", rel, weak, err)
			}
			if !again.Cached || again.Certificate == nil {
				t.Fatalf("%s weak=%v: cached=%v cert=%v, want cached certificate",
					rel, weak, again.Cached, again.Certificate != nil)
			}
			if err := cert.Verify(again.Certificate); err != nil {
				t.Fatalf("%s weak=%v: cached certificate rejected: %v", rel, weak, err)
			}

			// Without the flag the response is lean even on a cache hit.
			req.Cert = false
			lean, err := client.Equiv(ctx, req)
			if err != nil {
				t.Fatalf("%s weak=%v lean: %v", rel, weak, err)
			}
			if lean.Certificate != nil {
				t.Fatalf("%s weak=%v: certificate returned without cert flag", rel, weak)
			}
		}
	}
}
