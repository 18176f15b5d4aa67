package oracle

import (
	"context"
	"fmt"
	"os"

	"bpi/internal/cert"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/syntax"
)

// lawLedgerRoundtrip is the persistence law: a certified verdict that goes
// through the full ledger lifecycle — record construction, append, seal,
// process death (Close), and a fresh Open whose Replay verifies it — must come
// back exactly as decided, with its certificate still accepted and a sealed
// inclusion proof that verifies from the root alone, under the key a query
// on the pair looks it up by. The law fires when any of those layers drops,
// rejects or rewrites a verdict it should preserve, or when the query key
// and the certificate's key differ; disk-environment failures (no temp
// space, etc.) surface as engine errors, never as violations.
func lawLedgerRoundtrip() Law {
	return Law{
		Name:   "ledger/roundtrip",
		Doc:    "decide → persist → reopen: the replayed verdict, certificate and inclusion proof all agree with fresh computation, strong and weak",
		Config: proverConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			ch := equiv.NewChecker(nil)
			ch.Certify = true

			type decided struct {
				weak bool
				res  equiv.Result
				rec  ledger.Record
			}
			var verdicts []decided
			for _, weak := range []bool{false, true} {
				r, err := ch.Decide(ctx, equiv.Query{Rel: cert.RelLabelled, Weak: weak, P: p, Q: q})
				if err != nil {
					return "", err
				}
				if r.Cert == nil {
					return fmt.Sprintf("weak=%t: certifying checker returned no certificate", weak), nil
				}
				rec, err := ledger.NewRecord(cert.RelLabelled, weak, 0, 0, 0,
					r.Related, r.Pairs, r.Reason, r.Cert)
				if err != nil {
					return fmt.Sprintf("weak=%t: honest verdict refused by NewRecord: %v", weak, err), nil
				}
				// bpid writes a record under its query's key and the first
				// read re-derives the key from the certificate: a pair whose
				// keys differ would be quarantined in the next process.
				if qk := ledger.QueryKey(cert.RelLabelled, weak, p, q); qk != rec.Key {
					return fmt.Sprintf("weak=%t: query key %q differs from certificate key %q", weak, qk, rec.Key), nil
				}
				verdicts = append(verdicts, decided{weak: weak, res: r, rec: rec})
			}

			dir, err := os.MkdirTemp("", "bpifuzz-ledger-")
			if err != nil {
				return "", err
			}
			defer os.RemoveAll(dir)

			// First life: append both verdicts; BatchSize 1 seals each
			// immediately, so the reopened proof path is exercised too.
			l, err := ledger.Open(dir, ledger.Config{BatchSize: 1, MaxWait: -1})
			if err != nil {
				return "", err
			}
			for _, d := range verdicts {
				if _, err := l.Append(d.rec); err != nil {
					l.Close()
					return "", err
				}
			}
			if err := l.Close(); err != nil {
				return "", err
			}

			// Second life: Open checks framing and the seal chain, and
			// Replay verifies every record's certificate.
			l2, err := ledger.Open(dir, ledger.Config{BatchSize: 1, MaxWait: -1})
			if err != nil {
				return "", err
			}
			defer l2.Close()
			replayed := map[string]*ledger.Record{}
			certs := map[string]*cert.Certificate{}
			l2.Replay(func(r *ledger.Record, crt *cert.Certificate) {
				replayed[r.KeyHash] = r
				certs[r.KeyHash] = crt
			})
			st := l2.Stats()
			if st.Rejected != 0 || st.ChainBroken {
				return fmt.Sprintf("clean ledger damaged on reopen: %d rejected, chain_broken=%t (%v)",
					st.Rejected, st.ChainBroken, l2.Rejections()), nil
			}
			if st.Records != len(verdicts) {
				return fmt.Sprintf("persisted %d verdicts, reopened %d", len(verdicts), st.Records), nil
			}

			for _, d := range verdicts {
				got, ok := replayed[d.rec.KeyHash]
				if !ok {
					return fmt.Sprintf("weak=%t: verdict not replayed after reopen", d.weak), nil
				}
				if got.Related != d.res.Related || got.Rel != cert.RelLabelled || got.Weak != d.weak {
					return fmt.Sprintf("weak=%t: replayed verdict drifted: related=%t rel=%s weak=%t, decided related=%t",
						d.weak, got.Related, got.Rel, got.Weak, d.res.Related), nil
				}
				crt := certs[d.rec.KeyHash]
				if crt == nil {
					return fmt.Sprintf("weak=%t: replayed verdict lost its certificate", d.weak), nil
				}
				if verr := cert.Verify(crt); verr != nil {
					return fmt.Sprintf("weak=%t: replayed certificate rejected: %v", d.weak, verr), nil
				}
				proof, perr := l2.Proof(d.rec.KeyHash)
				if perr != nil {
					return fmt.Sprintf("weak=%t: no inclusion proof for a sealed record: %v", d.weak, perr), nil
				}
				if verr := ledger.VerifyProof(proof); verr != nil {
					return fmt.Sprintf("weak=%t: inclusion proof does not verify: %v", d.weak, verr), nil
				}
			}
			return "", nil
		},
	}
}
