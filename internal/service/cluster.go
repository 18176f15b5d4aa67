package service

import (
	"fmt"
	"time"

	"bpi/internal/cluster"
)

// This file threads the admission controller of internal/cluster through
// the request path and the /metrics exposition.

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

// admissionGauges appends the admission series to the /metrics exposition.
func (s *Server) admissionGauges(gauges []gauge) []gauge {
	ast := s.admission.Stats()
	return append(gauges,
		gauge{"bpid_admission_capacity", "Admission queue capacity (waiters beyond the worker pool).", "", float64(ast.Capacity)},
		gauge{"bpid_admission_inflight", "Queries admitted and not yet released.", "", float64(ast.Inflight)},
		gauge{"bpid_admission_admitted_total", "Queries admitted.", "", float64(ast.Admitted)},
		gauge{"bpid_admission_shed_total", "Queries shed, by cause.", fmt.Sprintf("{cause=%q}", cluster.CauseQueueFull), float64(ast.ShedQueueFull)},
		gauge{"bpid_admission_shed_total", "Queries shed, by cause.", fmt.Sprintf("{cause=%q}", cluster.CauseDeadlineBudget), float64(ast.ShedDeadlineBudget)},
		gauge{"bpid_admission_shed_total", "Queries shed, by cause.", fmt.Sprintf("{cause=%q}", cluster.CauseDraining), float64(ast.ShedDraining)},
		gauge{"bpid_admission_est_service_seconds", "EWMA of observed per-query service time.", "", ast.EstServiceSeconds},
	)
}
