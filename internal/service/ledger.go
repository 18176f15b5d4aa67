package service

import (
	"errors"
	"net/http"

	"bpi/internal/cert"
	"bpi/internal/ledger"
)

// The daemon's ledger integration has two halves, both off the hot path:
//
//   - warm start: at New, every record the ledger verified on Open (framing,
//     Merkle chain, and an independent cert.Verify replay — see
//     internal/ledger) is converted back into a cached EquivResponse, so a
//     restarted daemon answers repeat queries from the LRU without
//     re-exploring. The rejected remainder is only counted
//     (bpid_ledger_replay_rejected_total) — never trusted.
//   - write-behind append: runEquiv enqueues each fresh certified verdict on
//     a bounded channel; a single writer goroutine derives the record from
//     the certificate and appends it. A full queue drops the append (counted
//     as dropped_appends) rather than stalling the request; fsync cost is
//     paid by the ledger's batch sealer, never by a request.

// ledgerQueueDepth bounds the write-behind append queue.
const ledgerQueueDepth = 1024

// pendingAppend carries one certified verdict from runEquiv to the writer.
type pendingAppend struct {
	rel                           string
	weak                          bool
	maxPairs, maxClosure, maxSubs int
	resp                          EquivResponse
}

// attachLedger replays cfg.Ledger into the verdict cache and starts the
// write-behind appender. Called once from New.
func (s *Server) attachLedger() {
	if s.cfg.Ledger == nil {
		return
	}
	s.ledger = s.cfg.Ledger
	s.replayed = s.ledger.Replay(func(r *ledger.Record, crt *cert.Certificate) {
		key := budgetKey(r.Key, r.MaxPairs, r.MaxClosure, r.MaxSubs)
		s.cache.put(key, EquivResponse{
			Related:     r.Related,
			Pairs:       r.Pairs,
			Reason:      r.Reason,
			Certificate: crt,
			LedgerKey:   r.KeyHash,
		})
	})
	s.ledgerCh = make(chan pendingAppend, ledgerQueueDepth)
	s.ledgerWG.Add(1)
	go s.ledgerAppender()
}

// ledgerAppender is the single write-behind goroutine: it owns record
// construction (certificate term parsing included) so the request path pays
// neither that cost nor any disk latency.
func (s *Server) ledgerAppender() {
	defer s.ledgerWG.Done()
	for pa := range s.ledgerCh {
		rec, err := ledger.NewRecord(pa.rel, pa.weak, pa.maxPairs, pa.maxClosure, pa.maxSubs,
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
// persistence. Non-blocking by contract: a full queue counts a drop.
func (s *Server) recordVerdict(req *EquivRequest, resp *EquivResponse) {
	if s.ledger == nil || resp.Certificate == nil {
		return
	}
	pa := pendingAppend{rel: req.Rel, weak: req.Weak,
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
	resp := LedgerStatsResponse{Enabled: s.ledger != nil, Replayed: s.replayed}
	if s.ledger != nil {
		resp.Stats = s.ledger.Stats()
		resp.DroppedAppends = s.ledgerDropped.Load()
	}
	return http.StatusOK, resp
}

// handleLedgerProof serves GET /v1/ledger/proof/{key}, where key is the hex
// key hash reported as EquivResponse.LedgerKey. 409 pending until the
// record's batch seals; 404 when no trusted record has the key.
func (s *Server) handleLedgerProof(_ http.ResponseWriter, r *http.Request) (int, any) {
	if s.ledger == nil {
		return fail(&ErrorBody{Code: CodeNotFound, Message: "daemon runs without -ledger"})
	}
	key := r.PathValue("key")
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
}
