package cluster

import (
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/ledger"
	"bpi/internal/semantics"
)

// VerifyAccept is the fail-closed acceptance rule for verdicts that arrive
// from outside the local process (a peer dispatch, a ledger import). It
// accepts v only when ALL of the following replay cleanly, sharing no code
// trust with whoever produced it:
//
//  1. the verdict carries a certificate at all;
//  2. the certificate proves the verdict the peer claims;
//  3. the certificate's relation, mode and own terms re-derive key, the
//     queried pair key (ledger.CertKey) — a proof of another relation or
//     pair, however valid, cannot be replayed onto this cache key;
//  4. the independent verifier (internal/cert) accepts the evidence.
//
// On success the parsed certificate is returned for caching alongside the
// verdict. sys supplies process definitions for certificates over defined
// constants (nil is fine for closed terms).
func VerifyAccept(sys *semantics.System, key string, v *EquivVerdict) (*cert.Certificate, error) {
	if v == nil {
		return nil, fmt.Errorf("cluster: no verdict to accept")
	}
	if len(v.Certificate) == 0 {
		return nil, fmt.Errorf("cluster: remote verdict carries no certificate")
	}
	crt, err := cert.Unmarshal(v.Certificate)
	if err != nil {
		return nil, fmt.Errorf("cluster: remote certificate unparseable: %w", err)
	}
	if crt.Related != v.Related {
		return nil, fmt.Errorf("cluster: verdict related=%t but certificate proves related=%t",
			v.Related, crt.Related)
	}
	ck, err := ledger.CertKey(crt)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if ck != key {
		return nil, fmt.Errorf("cluster: certificate proves %s weak=%t on pair key %q, query was %q",
			crt.Relation, crt.Weak, ck, key)
	}
	verifier := &cert.Verifier{Sys: sys}
	if err := verifier.Verify(crt); err != nil {
		return nil, fmt.Errorf("cluster: certificate rejected by the independent verifier: %w", err)
	}
	return crt, nil
}
