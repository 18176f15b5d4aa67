package service

import (
	"context"
	"errors"
	"net/http"

	"bpi/internal/ledger"
	"bpi/internal/obs"
)

// The daemon's ledger integration has two halves, both off the path of a
// verdict-cache hit:
//
//   - read-through: on a verdict-cache miss, runEquiv asks the ledger
//     (Lookup) for a record of the pair computed under the request's
//     budgets. The ledger hands a record out only after its verified read:
//     its bytes against the seal chain and, at its first read, an
//     independent cert.Verify replay (see internal/ledger). The verdict then
//     enters the cache and is answered as cached, and counts in
//     bpid_ledger_replayed_total. A record that fails is quarantined and
//     counted (bpid_ledger_replay_rejected_total), never trusted, and the
//     query is decided afresh.
//   - write-behind append: runEquiv enqueues each fresh certified verdict,
//     with the pair key it computed, on a bounded channel; a single writer
//     goroutine builds the record under that key (ledger.NewKeyedRecord,
//     which parses no term: the record's first read checks the key against
//     the certificate) and appends it. A full queue drops the append
//     (counted as dropped_appends) rather than stalling the request; fsync
//     cost is paid by the ledger's batch sealer, never by a request.

// ledgerQueueDepth bounds the write-behind append queue.
const ledgerQueueDepth = 1024

// pendingAppend carries one certified verdict from runEquiv to the writer,
// under the pair key runEquiv computed for its query.
type pendingAppend struct {
	pairKey                       string
	rel                           string
	weak                          bool
	maxPairs, maxClosure, maxSubs int
	resp                          EquivResponse
}

// attachLedger starts the write-behind appender. Called once from New.
func (s *Server) attachLedger() {
	if s.cfg.Ledger == nil {
		return
	}
	s.ledger = s.cfg.Ledger
	s.ledgerCh = make(chan pendingAppend, ledgerQueueDepth)
	s.ledgerWG.Add(1)
	go s.ledgerAppender()
}

// fromLedger answers a verdict-cache miss from the ledger: the newest
// record of the pair under the request's budgets that passes its verified
// read.
func (s *Server) fromLedger(pairKey string, req *EquivRequest) (EquivResponse, bool) {
	if s.ledger == nil {
		return EquivResponse{}, false
	}
	r, crt, ok := s.ledger.Lookup(pairKey, req.MaxPairs, req.MaxClosure, req.MaxSubs)
	if !ok {
		return EquivResponse{}, false
	}
	s.replayed.Add(1)
	return EquivResponse{
		Related:     r.Related,
		Pairs:       r.Pairs,
		Reason:      r.Reason,
		Certificate: crt,
		LedgerKey:   r.KeyHash,
	}, true
}

// ledgerAppender is the single write-behind goroutine: it owns record
// construction (the certificate's encoding included) so the request path
// pays neither that cost nor any disk latency.
func (s *Server) ledgerAppender() {
	defer s.ledgerWG.Done()
	for pa := range s.ledgerCh {
		rec, err := ledger.NewKeyedRecord(pa.pairKey, pa.rel, pa.weak, pa.maxPairs, pa.maxClosure, pa.maxSubs,
			pa.resp.Related, pa.resp.Pairs, pa.resp.Reason, pa.resp.Certificate)
		if err != nil {
			s.ledgerDropped.Add(1)
			continue
		}
		if _, err := s.ledger.Append(rec); err != nil {
			s.ledgerDropped.Add(1)
		}
	}
}

// recordVerdict enqueues one freshly computed certified verdict for
// persistence under pairKey, ledger.QueryKey of the request. Non-blocking
// by contract: a full queue counts a drop.
func (s *Server) recordVerdict(pairKey string, req *EquivRequest, resp *EquivResponse) {
	if s.ledger == nil || resp.Certificate == nil {
		return
	}
	pa := pendingAppend{pairKey: pairKey, rel: req.Rel, weak: req.Weak,
		maxPairs: req.MaxPairs, maxClosure: req.MaxClosure, maxSubs: req.MaxSubs, resp: *resp}
	select {
	case s.ledgerCh <- pa:
	default:
		s.ledgerDropped.Add(1)
	}
}

// stopLedger drains the write-behind queue. Called by Shutdown after the
// in-flight drain (no request can enqueue anymore).
func (s *Server) stopLedger() {
	if s.ledgerCh != nil {
		close(s.ledgerCh)
		s.ledgerWG.Wait()
	}
}

// handleLedgerStats serves GET /v1/ledger/stats. A daemon without -ledger
// answers enabled=false rather than erroring, so probes need no config
// knowledge.
func (s *Server) handleLedgerStats(http.ResponseWriter, *http.Request) (int, any) {
	resp := LedgerStatsResponse{Enabled: s.ledger != nil, Replayed: int(s.replayed.Load())}
	if s.ledger != nil {
		resp.Stats = s.ledger.Stats()
		resp.DroppedAppends = s.ledgerDropped.Load()
	}
	return http.StatusOK, resp
}

// handleLedgerProof serves GET /v1/ledger/proof/{key}, where key is the hex
// key hash reported as EquivResponse.LedgerKey. The proof reads the record
// through the ledger's verified read, which verifies a record not read
// before, so it passes the gate. 409 pending until the record's batch
// seals; 404 when no record of the key passes its read.
func (s *Server) handleLedgerProof(w http.ResponseWriter, r *http.Request) (int, any) {
	if s.ledger == nil {
		return fail(&ErrorBody{Code: CodeNotFound, Message: "daemon runs without -ledger"})
	}
	key := r.PathValue("key")
	return s.sync(w, r, 0, func(context.Context, *obs.Tracer) (int, any) {
		p, err := s.ledger.Proof(key)
		switch {
		case errors.Is(err, ledger.ErrPending):
			return fail(&ErrorBody{Code: CodePending,
				Message: "record exists but its batch is not sealed yet; retry after the seal interval"})
		case errors.Is(err, ledger.ErrUnknownKey):
			return fail(&ErrorBody{Code: CodeNotFound, Message: "no ledger record for key " + key})
		case err != nil:
			return fail(&ErrorBody{Code: CodeInternal, Message: err.Error()})
		}
		return http.StatusOK, p
	})
}
