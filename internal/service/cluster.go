package service

import (
	"context"
	"fmt"
	"time"

	"bpi/internal/cluster"
	"bpi/internal/ledger"
)

// This file is the daemon side of the cluster tier: admission glue and
// remote dispatch. The mechanisms themselves (rendezvous routing, the
// bounded admission queue, the peer client, the fail-closed acceptance
// rule) live in internal/cluster; this file only threads them through the
// request path.

// admit runs one query admission. On shed it returns the typed 429 body;
// on admission the returned release MUST be called with the observed
// service time (it frees the queue slot and feeds the wait predictor).
func (s *Server) admit(budget time.Duration) (func(time.Duration), *ErrorBody) {
	release, shed := s.admission.Admit(budget, s.isClosed())
	if shed != nil {
		return nil, shedError(shed)
	}
	return release, nil
}

// shedError maps an admission shed to its wire form. Every shed carries a
// Retry-After hint, which is also what routes it to HTTP 429 in fail().
func shedError(sh *cluster.Shed) *ErrorBody {
	sec := int(sh.RetryAfter / time.Second)
	if sec < 1 {
		sec = 1
	}
	switch sh.Cause {
	case cluster.CauseDraining:
		return &ErrorBody{Code: CodeDraining, RetryAfterSec: sec,
			Message: "daemon is draining; retry against another node"}
	case cluster.CauseDeadlineBudget:
		return &ErrorBody{Code: CodeDeadlineBudget, RetryAfterSec: sec,
			Message: "predicted queue wait exceeds the request deadline budget"}
	default:
		return &ErrorBody{Code: CodeQueueFull, RetryAfterSec: sec,
			Message: "admission queue is full"}
	}
}

// dispatchRemote sends one pair to its owning peer and accepts the verdict
// only through the fail-closed rule: transport success is necessary but
// never sufficient — the peer's certificate must independently re-verify
// here, over this node's own verifier, against the locally derived pair
// identity. Any failure reports (nil, false) and the caller computes
// locally.
func (s *Server) dispatchRemote(ctx context.Context, req *EquivRequest, owner, pairKey, cacheKey string) (*EquivResponse, bool) {
	// The remote leg gets at most half the request budget (and never more
	// than PeerTimeout), so a hung peer still leaves room for the local
	// fallback to finish inside the client's deadline.
	budget := s.timeout(req.TimeoutMs) / 2
	if pt := s.cfg.peerTimeout(); budget > pt {
		budget = pt
	}
	rctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	v, err := s.peerc.Equiv(rctx, owner, cluster.EquivQuery{
		P: req.P, Q: req.Q, Rel: req.Rel, Weak: req.Weak,
		MaxPairs: req.MaxPairs, MaxClosure: req.MaxClosure, MaxSubs: req.MaxSubs,
		TimeoutMs: int(budget / time.Millisecond),
	})
	if err != nil {
		s.clusterRemoteFail.Add(1)
		return nil, false
	}
	crt, err := cluster.VerifyAccept(s.sys, pairKey, v)
	if err != nil {
		// The tampered/mismatched certificate is the whole story: count it,
		// refuse the verdict, and crucially never let it near the cache.
		s.clusterCertReject.Add(1)
		return nil, false
	}
	resp := EquivResponse{
		Related:     v.Related,
		Pairs:       v.Pairs,
		Reason:      v.Reason,
		ElapsedMs:   v.ElapsedMs,
		Certificate: crt,
		Peer:        owner,
	}
	if s.ledger != nil {
		resp.LedgerKey = ledger.KeyHash(pairKey)
	}
	s.cache.put(cacheKey, resp)
	s.recordVerdict(req, &resp)
	s.clusterRemoteOK.Add(1)
	if !req.Cert {
		stripped := resp
		stripped.Certificate = nil
		return &stripped, true
	}
	return &resp, true
}

// clusterGauges appends the admission and cluster series to the /metrics
// exposition.
func (s *Server) clusterGauges(gauges []gauge) []gauge {
	ast := s.admission.Stats()
	gauges = append(gauges,
		gauge{"bpid_admission_capacity", "Admission queue capacity (waiters beyond the worker pool).", "", float64(ast.Capacity)},
		gauge{"bpid_admission_inflight", "Queries admitted and not yet released.", "", float64(ast.Inflight)},
		gauge{"bpid_admission_admitted_total", "Queries admitted.", "", float64(ast.Admitted)},
		gauge{"bpid_admission_shed_total", "Queries shed, by cause.", fmt.Sprintf("{cause=%q}", cluster.CauseQueueFull), float64(ast.ShedQueueFull)},
		gauge{"bpid_admission_shed_total", "Queries shed, by cause.", fmt.Sprintf("{cause=%q}", cluster.CauseDeadlineBudget), float64(ast.ShedDeadlineBudget)},
		gauge{"bpid_admission_shed_total", "Queries shed, by cause.", fmt.Sprintf("{cause=%q}", cluster.CauseDraining), float64(ast.ShedDraining)},
		gauge{"bpid_admission_est_service_seconds", "EWMA of observed per-query service time.", "", ast.EstServiceSeconds},
	)
	if s.router == nil {
		return gauges
	}
	cs := s.Cluster()
	return append(gauges,
		gauge{"bpid_cluster_peers", "Cluster membership size (self included).", "", float64(cs.Peers)},
		gauge{"bpid_cluster_remote_ok_total", "Peer verdicts accepted after local certificate verification.", "", float64(cs.RemoteOK)},
		gauge{"bpid_cluster_remote_fail_total", "Peer dispatches failed at the transport level.", "", float64(cs.RemoteFail)},
		gauge{"bpid_cluster_cert_rejected_total", "Peer verdicts refused by the fail-closed acceptance rule.", "", float64(cs.CertRejected)},
		gauge{"bpid_cluster_local_fallback_total", "Routed pairs ultimately computed locally.", "", float64(cs.LocalFallback)},
		gauge{"bpid_cluster_forwarded_served_total", "Forwarded peer requests decided locally by rule.", "", float64(cs.ForwardedServed)},
	)
}
