package oracle

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"bpi/internal/cert"
	"bpi/internal/cluster"
	"bpi/internal/equiv"
	"bpi/internal/ledger"
	"bpi/internal/service"
	"bpi/internal/syntax"
)

// clusterVerdict is the byte-comparable projection of an equivalence
// verdict: what the caller acts on, stripped of transport metadata
// (elapsed time, cache flags, serving peer) and of the pairs-explored work
// counter, which legitimately varies with store memoisation.
type clusterVerdict struct {
	Related bool   `json:"related"`
	Reason  string `json:"reason,omitempty"`
}

func verdictBytes(related bool, reason string) []byte {
	b, err := json.Marshal(clusterVerdict{Related: related, Reason: reason})
	if err != nil {
		// Marshalling two scalar fields cannot fail.
		panic(err)
	}
	return b
}

// lawClusterAgree is the distribution law: a 3-node cluster must be
// observationally identical to one sequential checker. Every batch verdict
// — whether the queried node owned the pair, routed it to its rendezvous
// owner, or served it from its verdict cache — must byte-agree with direct
// sequential computation (up to the cache's deliberate orientation
// normalisation), and every verdict must carry a certificate the
// independent verifier accepts (for routed pairs that is exactly the
// fail-closed acceptance evidence: the peer's certificate re-verified).
// The law also holds the routing itself to account: with all peers
// healthy, a non-owned pair must be served by its owner (a silent local
// fallback would hide a broken peer path), and an owned pair must never
// report a peer.
func lawClusterAgree() Law {
	return Law{
		Name:   "cluster/agree",
		Doc:    "3-node batch verdicts — owned, routed and cache-hit — byte-agree with the direct sequential checker, certificates verifier-passing",
		Config: proverConfig(),
		Gen:    mixedPair,
		Check: func(ctx context.Context, env *Env, p, q syntax.Proc) (string, error) {
			// Direct reference verdicts — one FRESH sequential checker per
			// row, sharing no state with each other or with any node. Both
			// orientations are decided: the batch then carries distinct
			// request rows that collapse onto one canonical pair key, and
			// since the verdict cache normalises orientation (PairKey sorts
			// its term keys), a row's verdict may byte-agree with either
			// orientation's direct computation — but never with anything
			// else.
			type row struct {
				p, q syntax.Proc
				weak bool
				res  equiv.Result
			}
			rows := []row{
				{p: p, q: q, weak: false},
				{p: p, q: q, weak: true},
				{p: q, q: p, weak: false},
				{p: q, q: p, weak: true},
			}
			for i := range rows {
				ch := equiv.NewChecker(nil)
				ch.Certify = true
				r, err := ch.LabelledCtx(ctx, rows[i].p, rows[i].q, rows[i].weak)
				if err != nil {
					return "", err
				}
				rows[i].res = r
			}
			// mirror[i] is the row deciding the same canonical pair as row
			// i in the opposite orientation.
			mirror := []int{2, 3, 0, 1}

			nodes, err := StartCluster(3, service.Config{Workers: 2})
			if err != nil {
				return "", err
			}
			defer func() {
				for _, n := range nodes {
					n.Close()
				}
			}()
			urls := make([]string, len(nodes))
			for i, n := range nodes {
				urls[i] = n.URL()
			}

			batch := service.BatchRequest{}
			for _, w := range rows {
				batch.Pairs = append(batch.Pairs, service.EquivRequest{
					P: syntax.Print(w.p), Q: syntax.Print(w.q),
					Rel: service.RelLabelled, Weak: w.weak,
					Cert: true, TimeoutMs: 30000,
				})
			}

			for ni, node := range nodes {
				// The same rendezvous membership the nodes run lets the law
				// predict, per pair, which node must serve it.
				router, rerr := cluster.NewRouter(node.URL(), urls)
				if rerr != nil {
					return "", rerr
				}
				// Round 0 is cold (owned or routed); round 1 repeats the
				// identical batch and must be served from the verdict cache.
				for round := 0; round < 2; round++ {
					items, trailer, berr := node.Batch(ctx, batch)
					if berr != nil {
						return "", berr
					}
					if !trailer.Done || trailer.Total != len(batch.Pairs) ||
						trailer.Succeeded != len(batch.Pairs) || trailer.Failed != 0 || trailer.Shed != 0 {
						return fmt.Sprintf("node %d round %d: healthy batch accounted as %+v", ni, round, trailer), nil
					}
					if len(items) != len(batch.Pairs) {
						return fmt.Sprintf("node %d round %d: %d items for %d pairs", ni, round, len(items), len(batch.Pairs)), nil
					}
					for _, it := range items {
						if it.Index < 0 || it.Index >= len(rows) {
							return fmt.Sprintf("node %d round %d: item index %d out of range", ni, round, it.Index), nil
						}
						w := rows[it.Index]
						if it.Error != nil || it.Equiv == nil {
							return fmt.Sprintf("node %d round %d pair %d: typed error on a healthy cluster: %+v", ni, round, it.Index, it.Error), nil
						}
						m := rows[mirror[it.Index]]
						got := verdictBytes(it.Equiv.Related, it.Equiv.Reason)
						want := verdictBytes(w.res.Related, w.res.Reason)
						wantM := verdictBytes(m.res.Related, m.res.Reason)
						if !bytes.Equal(got, want) && !bytes.Equal(got, wantM) {
							return fmt.Sprintf("node %d round %d pair %d (weak=%t): cluster verdict %s, direct checker %s (mirrored %s)",
								ni, round, it.Index, w.weak, got, want, wantM), nil
						}
						if it.Equiv.Certificate == nil {
							return fmt.Sprintf("node %d round %d pair %d: verdict without a certificate", ni, round, it.Index), nil
						}
						if verr := cert.Verify(it.Equiv.Certificate); verr != nil {
							return fmt.Sprintf("node %d round %d pair %d: certificate rejected by the verifier: %v", ni, round, it.Index, verr), nil
						}
						owner := router.Owner(ledger.QueryKey(service.RelLabelled, w.weak, w.p, w.q))
						if round == 1 {
							if !it.Equiv.Cached {
								return fmt.Sprintf("node %d pair %d: repeated batch missed the verdict cache", ni, it.Index), nil
							}
							continue
						}
						if it.Equiv.Cached {
							// A duplicate-key sibling in the same batch
							// finished first; the cache hit already agreed
							// above, and carries no routing obligation.
							continue
						}
						if owner == node.URL() {
							if it.Equiv.Peer != "" {
								return fmt.Sprintf("node %d pair %d: owned pair reported peer %q", ni, it.Index, it.Equiv.Peer), nil
							}
						} else if it.Equiv.Peer != owner {
							return fmt.Sprintf("node %d pair %d: owner is %s but verdict came from %q (silent fallback with all peers healthy)",
								ni, it.Index, owner, it.Equiv.Peer), nil
						}
					}
				}
			}
			return "", nil
		},
	}
}
