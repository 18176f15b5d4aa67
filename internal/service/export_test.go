package service

import (
	"context"
	"time"
)

// Hooks for the external tests, which set up gate states by hand so that
// no case depends on timing.

// Hold admits one unit of work with no deadline budget, so it is never
// shed for budget, and with slot set also takes a worker slot for it. The
// returned func finishes it.
func (s *Server) Hold(slot bool) (func(), *ErrorBody) {
	t, eb := s.gate.admit(0)
	if eb != nil {
		return nil, eb
	}
	if slot {
		t.wait(context.Background()) // no deadline: cannot give up
	}
	return func() { t.done(0) }, nil
}

// SeedEstimate primes the gate's wait predictor.
func (s *Server) SeedEstimate(d time.Duration) {
	s.gate.mu.Lock()
	s.gate.ewma = d
	s.gate.mu.Unlock()
}

// GateStats snapshots the gate's counters.
func (s *Server) GateStats() gateStats { return s.gate.stats() }
