package service

import (
	"context"
	"fmt"
	"sync"

	"bpi/internal/obs"
)

// maxFinishedJobs bounds the finished jobs the table keeps, with their
// results, traces and certificates; the oldest finished job is evicted
// first, and its id then answers not_found.
const maxFinishedJobs = 256

// jobManager owns the async job table. Submitted jobs pass the same gate as
// synchronous requests and hold one worker each while they run; the gate
// bounds the unfinished jobs, and maxFinishedJobs the finished ones.
type jobManager struct {
	srv *Server

	mu       sync.Mutex
	nextID   uint64
	jobs     map[string]*job
	finished []string // ids of the finished jobs in the table, oldest first
}

type job struct {
	mu     sync.Mutex
	status JobStatusResponse
	// equivReq remembers an equiv job's request so GET /certificate/{id}
	// can report the relation alongside the recorded certificate.
	equivReq *EquivRequest
	// trace is the job's private tracer, set when execution starts and
	// served by GET /trace/{id}. Engine spans and counters land here;
	// store-level counters stay on the daemon tracer (the store is shared).
	trace *obs.Tracer
}

// submit validates, admits and starts one job. The request's kind payload
// is executed on a background context bounded by the request's own timeout
// (the submitting HTTP request may return long before the job finishes).
func (m *jobManager) submit(req *JobRequest) (string, *ErrorBody) {
	switch req.Kind {
	case JobEquiv:
		if req.Equiv == nil {
			return "", &ErrorBody{Code: CodeInvalidRequest, Message: `kind "equiv" needs the equiv payload`}
		}
	case JobProve:
		if req.Prove == nil {
			return "", &ErrorBody{Code: CodeInvalidRequest, Message: `kind "prove" needs the prove payload`}
		}
	case JobRun:
		if req.Run == nil {
			return "", &ErrorBody{Code: CodeInvalidRequest, Message: `kind "run" needs the run payload`}
		}
	default:
		return "", &ErrorBody{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("unknown job kind %q (want equiv|prove|run)", req.Kind)}
	}
	// A job's timeout starts when it runs, so it has no deadline budget to
	// shed for.
	t, eb := m.srv.gate.admit(0)
	if eb != nil {
		return "", eb
	}
	m.mu.Lock()
	m.nextID++
	id := fmt.Sprintf("job-%d", m.nextID)
	j := &job{}
	if req.Kind == JobEquiv {
		// Equiv jobs always record their certificate: the poller may not
		// have asked for it inline, but GET /certificate/{id} must be able
		// to serve it after the job finishes.
		er := *req.Equiv
		er.Cert = true
		req = &JobRequest{Kind: req.Kind, Equiv: &er}
		j.equivReq = &er
	}
	j.status = JobStatusResponse{ID: id, Kind: req.Kind, State: JobPending}
	m.jobs[id] = j
	m.mu.Unlock()

	// The slot wait has no deadline: an accepted job is a promise, and the
	// drain in Shutdown waits for it.
	go t.serve(context.Background(), func() { m.execute(j, req) })
	return id, nil
}

// execute runs one job to completion on a worker slot.
func (m *jobManager) execute(j *job, req *JobRequest) {
	tr := obs.NewWithLimit(4096)
	j.mu.Lock()
	j.status.State = JobRunning
	j.trace = tr
	j.mu.Unlock()

	ctx := context.Background()
	var (
		equivResp *EquivResponse
		proveResp *ProveResponse
		runResp   *RunResponse
		eb        *ErrorBody
	)
	switch req.Kind {
	case JobEquiv:
		equivResp, eb = m.srv.runEquiv(ctx, req.Equiv, tr)
	case JobProve:
		proveResp, eb = m.srv.runProve(ctx, req.Prove, tr)
	case JobRun:
		runResp, eb = m.srv.runMachine(ctx, req.Run, tr)
	}
	// The job turns finished and the oldest finished job leaves the table
	// in one critical section, so a poller that sees this job finished
	// also sees the eviction.
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	if eb != nil {
		j.status.State = JobFailed
		j.status.Error = eb
	} else {
		j.status.State = JobDone
		j.status.Equiv, j.status.Prove, j.status.Run = equivResp, proveResp, runResp
	}
	id := j.status.ID
	j.mu.Unlock()
	m.finished = append(m.finished, id)
	if len(m.finished) > maxFinishedJobs {
		delete(m.jobs, m.finished[0])
		m.finished = m.finished[1:]
	}
}

// trace returns a job's tracer (nil until the job starts running) and a
// copy of its status.
func (m *jobManager) trace(id string) (*obs.Tracer, JobStatusResponse, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, JobStatusResponse{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace, j.status, true
}

// status returns a copy of the job's current state. Certificates are not
// inlined in job polls (they can be large); GET /certificate/{id} serves
// them once the job is done.
func (m *jobManager) status(id string) (JobStatusResponse, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return JobStatusResponse{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.status
	if st.Equiv != nil && st.Equiv.Certificate != nil {
		stripped := *st.Equiv
		stripped.Certificate = nil
		st.Equiv = &stripped
	}
	return st, true
}

// certificate returns the certificate recorded by a finished equiv job.
func (m *jobManager) certificate(id string) (*CertificateResponse, *ErrorBody) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, &ErrorBody{Code: CodeNotFound, Message: "no such job " + id}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.Kind != JobEquiv {
		return nil, &ErrorBody{Code: CodeInvalidRequest,
			Message: fmt.Sprintf("job %s has kind %q; certificates are recorded for equiv jobs", id, j.status.Kind)}
	}
	switch j.status.State {
	case JobPending, JobRunning:
		// 409, not 404: the job exists and will record a certificate; the
		// client should retry after the job finishes.
		return nil, &ErrorBody{Code: CodePending,
			Message: fmt.Sprintf("job %s is %s; its certificate is recorded when it finishes", id, j.status.State)}
	case JobFailed:
		// Terminal: the certificate never came to exist, retrying is
		// pointless — distinct from an unknown job id only by code.
		return nil, &ErrorBody{Code: CodeJobFailed,
			Message: fmt.Sprintf("job %s failed (%s); no certificate was recorded", id, j.status.Error.Code)}
	}
	if j.status.Equiv == nil || j.status.Equiv.Certificate == nil {
		return nil, &ErrorBody{Code: CodeInternal, Message: "finished equiv job recorded no certificate"}
	}
	return &CertificateResponse{
		ID:          id,
		Rel:         j.equivReq.Rel,
		Weak:        j.equivReq.Weak,
		Related:     j.status.Equiv.Related,
		Certificate: j.status.Equiv.Certificate,
	}, nil
}

// counts reports jobs per state for the metrics surface.
func (m *jobManager) counts() map[string]int {
	out := map[string]int{JobPending: 0, JobRunning: 0, JobDone: 0, JobFailed: 0}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		out[j.status.State]++
		j.mu.Unlock()
	}
	return out
}
