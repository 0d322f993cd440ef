package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/granularity"
)

// Config sizes a Server. Zero values take the documented defaults.
type Config struct {
	// DataDir holds the durable state: DataDir/sessions/*.json and
	// DataDir/jobs/*.json.
	DataDir string
	// Grans is the CLI's -grans value: comma-separated periodic
	// granularity spec files extending the default system.
	Grans string
	// Defines are the CLI's -define values: name=expr calendar-expression
	// definitions registered after the Grans files.
	Defines []string
	// MaxInflight bounds concurrently running synchronous requests
	// (default 8); QueueDepth bounds how many more may wait (default 16).
	// Beyond that, requests are rejected with 429.
	MaxInflight int
	QueueDepth  int
	// JobWorkers sizes the mining worker pool (default 2); JobQueueDepth
	// bounds accepted-but-unstarted jobs (default 64).
	JobWorkers    int
	JobQueueDepth int
	// MaxSessions bounds live streaming sessions (default 1024).
	MaxSessions int
	// CheckpointEvery strides session checkpoints: a session's JSON record
	// is rewritten every Nth fed event instead of on every batch (default
	// 8). Recovery replays the event-log tail past the last checkpoint, so
	// the two together lose nothing.
	CheckpointEvery int
	// ScanWorkers is the default per-job TAG scan fan-out when neither
	// the request nor the problem spec sets one (default
	// cli.ResolveWorkers: GOMAXPROCS).
	ScanWorkers int
	// RetryAfter is the Retry-After hint on 429/503 responses, in seconds
	// (default 1).
	RetryAfter int
	// System, when non-nil, is the granularity system to use instead of
	// loading one from Grans — embedders (tests, the differential oracle)
	// inject synthetic systems this way.
	System *granularity.System
	// Internal registers the /internal/* cluster endpoints: ownership
	// epochs, session/job export-import migration, work stealing, quiesce.
	// A worker tempod behind a cluster router runs with Internal set; a
	// standalone daemon leaves them off its surface.
	Internal bool
	// RequestShutdown, when non-nil, is invoked by POST /internal/shutdown
	// (worker mode) to trigger the process's graceful drain-and-exit path.
	RequestShutdown func()
	// Logger receives restore/drain diagnostics (default: standard log).
	Logger *log.Logger
}

func (c *Config) fill() {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 64
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
}

// Server is the tempod daemon: admission-controlled synchronous checks,
// checkpointed streaming TAG sessions, and an asynchronous mining job
// pool, all observed through one engine.Counters served at /metrics.
type Server struct {
	cfg      Config
	sys      *granularity.System
	counters *engine.Counters
	lim      *limiter
	sessions *sessionStore
	jobs     *jobStore
	mux      *http.ServeMux
	start    time.Time
	wg       sync.WaitGroup // admitted synchronous requests

	// epoch is the adopted ownership epoch (worker mode): monotonically
	// raised by rebalances, it fences writes from stale owners. See
	// cluster.go.
	epoch atomic.Int64

	// holdCheck, when non-nil, is called inside POST /v1/check between
	// admission and the solve; the drain tests use it to park an
	// in-flight request at a known point.
	holdCheck func()
}

// New builds a Server, restoring checkpointed sessions and unfinished jobs
// from cfg.DataDir and starting the mining workers.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	sys := cfg.System
	if sys == nil {
		var err error
		if sys, err = cli.LoadSystem(cfg.Grans, cfg.Defines); err != nil {
			return nil, err
		}
	}
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("server: DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, err
	}
	counters := engine.NewCounters()
	sessions, err := newSessionStore(filepath.Join(cfg.DataDir, "sessions"), sys, counters, cfg.MaxSessions, cfg.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	sessRec, nSessions, replayed, err := sessions.restore(cfg.Logger)
	if err != nil {
		return nil, err
	}
	jobs, err := newJobStore(filepath.Join(cfg.DataDir, "jobs"), sys, counters, cfg.JobWorkers, cfg.JobQueueDepth, cfg.ScanWorkers, sessions.tail)
	if err != nil {
		return nil, err
	}
	jobRec, nJobs, err := jobs.restore(cfg.Logger)
	if err != nil {
		jobs.shutdown()
		return nil, err
	}
	agg := sessRec
	agg.Add(jobRec)
	cfg.Logger.Printf("tempod recovery: restored %d session(s) (%d event(s) replayed from logs) and %d job(s); event logs: %s",
		nSessions, replayed, nJobs, agg.Summary())
	s := &Server{
		cfg:      cfg,
		sys:      sys,
		counters: counters,
		lim:      newLimiter(cfg.MaxInflight, cfg.QueueDepth),
		sessions: sessions,
		jobs:     jobs,
		start:    time.Now(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/check", s.handleCheck)
	s.mux.HandleFunc("POST /v1/tag/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/tag/sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/tag/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("DELETE /v1/tag/sessions/{id}", s.handleSessionClose)
	s.mux.HandleFunc("POST /v1/mining/jobs", s.handleJobCreate)
	s.mux.HandleFunc("GET /v1/mining/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("POST /v1/mining/jobs/{id}/refresh", s.handleJobRefresh)
	if cfg.Internal {
		s.registerInternal()
	}
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Counters exposes the merged engine counters (the /metrics source).
func (s *Server) Counters() *engine.Counters { return s.counters }

// Drain performs the graceful shutdown sequence: refuse new synchronous
// work and job submissions (503), let admitted requests finish (bounded by
// ctx), interrupt running mining attempts so they checkpoint, stop the
// workers, and checkpoint every live session. Queued jobs and parked
// sessions restart cleanly from DataDir on the next New.
func (s *Server) Drain(ctx context.Context) error {
	s.lim.startDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var waitErr error
	select {
	case <-done:
	case <-ctx.Done():
		waitErr = ctx.Err()
	}
	s.jobs.shutdown()
	if err := s.sessions.checkpointAll(); err != nil && waitErr == nil {
		waitErr = err
	}
	return waitErr
}

// admit runs the admission controller for one synchronous request and
// tracks it for drain. The caller must defer the returned release when
// admission succeeds.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if err := s.lim.acquire(r.Context()); err != nil {
		switch err {
		case errBusy:
			s.counters.Count("server.rejected.busy", 1)
			s.writeBackoffError(w, http.StatusTooManyRequests, err)
		case errDraining:
			s.counters.Count("server.rejected.draining", 1)
			s.writeBackoffError(w, http.StatusServiceUnavailable, err)
		default: // client gave up while queued
			s.writeError(w, 499, err)
		}
		return nil, false
	}
	s.wg.Add(1)
	return func() {
		s.lim.release()
		s.wg.Done()
	}, true
}

// engineConfig maps a request's deadline and budget onto the engine.
func (s *Server) engineConfig(ctx context.Context, timeoutMS, budget int64) (engine.Config, context.CancelFunc) {
	cancel := context.CancelFunc(func() {})
	if timeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(timeoutMS)*time.Millisecond)
	}
	return engine.Config{Ctx: ctx, Budget: budget, Observer: s.counters}, cancel
}

// handleCheck runs a consistency check; the response body is byte-identical
// to `tcgcheck -json` for the same spec and options.
func (s *Server) handleCheck(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	if s.holdCheck != nil {
		s.holdCheck()
	}
	req, structure, err := DecodeCheckRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.counters.Count("server.requests.check", 1)
	eng, cancel := s.engineConfig(r.Context(), req.TimeoutMS, req.Budget)
	defer cancel()
	res, err := cli.RunCheck(s.sys, structure, cli.CheckOptions{
		Exact:    req.Exact,
		FromYear: req.FromYear,
		ToYear:   req.ToYear,
		Engine:   eng,
	})
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeBody(w, http.StatusOK, res.EncodeJSON)
}

// handleSessionCreate opens a streaming TAG session.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	req, ct, err := DecodeSessionCreateRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := s.sessions.create(req, ct, r.Header.Get(AssignIDHeader))
	if err != nil {
		if errors.Is(err, errBusy) {
			s.counters.Count("server.rejected.busy", 1)
			s.writeBackoffError(w, http.StatusTooManyRequests, err)
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, SessionCreateResponse{ID: sess.id, Automaton: cli.AutomatonInfoOf(sess.auto)})
}

// handleSessionEvents feeds a batch of events to a session. Conflict
// responses carry machine-readable codes: "feed_conflict" (the after
// guard mismatched — the batch may already have landed) and "migrating"
// (the session is sealed mid-handover; retry against the new owner).
func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no session %q", r.PathValue("id")))
		return
	}
	req, err := DecodeEventsRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := s.sessions.feed(sess, req.Events, req.After)
	switch {
	case err == nil:
	case errors.Is(err, errFeedConflict):
		s.writeCodedError(w, http.StatusConflict, CodeFeedConflict, err)
		return
	case errors.Is(err, errMigrating):
		s.writeCodedError(w, http.StatusConflict, CodeMigrating, err)
		return
	default:
		s.writeError(w, http.StatusConflict, err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleSessionGet polls a session without feeding.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no session %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, s.sessions.state(sess))
}

// handleSessionClose deletes a session and its checkpoint.
func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	id := r.PathValue("id")
	if !s.sessions.close(id) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no session %q", id))
		return
	}
	s.writeJSON(w, http.StatusOK, SessionCloseResponse{ID: id, Closed: true})
}

// handleJobCreate submits an asynchronous mining job.
func (s *Server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	if s.lim.draining() {
		s.counters.Count("server.rejected.draining", 1)
		s.writeBackoffError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	req, err := DecodeJobCreateRequest(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// Reject malformed sequences, unbuildable problems and dead sessions at
	// submit time, not on the worker.
	if req.SessionID != "" {
		if _, ok := s.sessions.get(req.SessionID); !ok {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no session %q", req.SessionID))
			return
		}
		if _, _, _, err := req.Problem.Build(s.sys, nil); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	} else {
		seq := toSequence(req.Events)
		if err := seq.Validate(); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if _, _, _, err := req.Problem.Build(s.sys, seq); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	j, err := s.jobs.submit(req, r.Header.Get(AssignIDHeader))
	switch err {
	case nil:
	case errBusy:
		s.counters.Count("server.rejected.busy", 1)
		s.writeBackoffError(w, http.StatusTooManyRequests, err)
		return
	case errDraining:
		s.counters.Count("server.rejected.draining", 1)
		s.writeBackoffError(w, http.StatusServiceUnavailable, err)
		return
	default:
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobRefresh re-enqueues a done session-attached job: the next
// attempt re-mines only the suffix the session appended since the job's
// last consolidation checkpoint. A detached job answers 409 with a
// structured "refresh_conflict" error body, a job mid-migration 409
// "migrating".
func (s *Server) handleJobRefresh(w http.ResponseWriter, r *http.Request) {
	if !s.fenceEpoch(w, r) {
		return
	}
	if s.lim.draining() {
		s.counters.Count("server.rejected.draining", 1)
		s.writeBackoffError(w, http.StatusServiceUnavailable, errDraining)
		return
	}
	j, err := s.jobs.refresh(r.PathValue("id"))
	switch {
	case err == nil:
	case errors.Is(err, errNoJob):
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no job %q", r.PathValue("id")))
		return
	case errors.Is(err, errBusy):
		s.counters.Count("server.rejected.busy", 1)
		s.writeBackoffError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errDraining):
		s.counters.Count("server.rejected.draining", 1)
		s.writeBackoffError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, errMigrating):
		s.writeCodedError(w, http.StatusConflict, CodeMigrating, err)
		return
	case errors.Is(err, errRefreshConflict):
		s.writeCodedError(w, http.StatusConflict, CodeRefreshConflict, err)
		return
	default:
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, j.status())
}

// handleJobGet polls a job.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("server: no job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, http.StatusOK, j.status())
}

// handleHealth reports liveness; a draining daemon answers 503 so load
// balancers stop routing to it.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	queued, running, _ := s.jobs.stats()
	h := HealthResponse{
		Status:        "ok",
		Sessions:      s.sessions.count(),
		JobsQueued:    queued,
		JobsRunning:   running,
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
	}
	code := http.StatusOK
	if s.lim.draining() {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	s.writeJSON(w, code, h)
}

// handleMetrics serves the merged engine counters in Prometheus text
// exposition, followed by the server's own gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := engine.WriteMetricsText(w, s.counters); err != nil {
		return
	}
	queued, running, byState := s.jobs.stats()
	fmt.Fprintf(w, "# HELP tempod_sessions_active Live streaming TAG sessions.\n")
	fmt.Fprintf(w, "# TYPE tempod_sessions_active gauge\n")
	fmt.Fprintf(w, "tempod_sessions_active %d\n", s.sessions.count())
	fmt.Fprintf(w, "# HELP tempod_inflight Synchronous requests currently running (queued: waiting for a slot).\n")
	fmt.Fprintf(w, "# TYPE tempod_inflight gauge\n")
	fmt.Fprintf(w, "tempod_inflight %d\n", s.lim.inflight())
	fmt.Fprintf(w, "tempod_inflight_queued %d\n", s.lim.waiting())
	fmt.Fprintf(w, "# HELP tempod_jobs Mining jobs by state.\n")
	fmt.Fprintf(w, "# TYPE tempod_jobs gauge\n")
	states := make([]string, 0, len(byState))
	for st := range byState {
		states = append(states, st)
	}
	sort.Strings(states)
	for _, st := range states {
		fmt.Fprintf(w, "tempod_jobs{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintf(w, "tempod_jobs_queue_depth %d\n", queued)
	fmt.Fprintf(w, "tempod_jobs_running %d\n", running)
	fmt.Fprintf(w, "# HELP tempod_draining Whether the daemon is draining.\n")
	fmt.Fprintf(w, "# TYPE tempod_draining gauge\n")
	fmt.Fprintf(w, "tempod_draining %d\n", boolGauge(s.lim.draining()))
}

func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// writeBody writes a response produced by one of the shared cli encoders,
// preserving its exact bytes.
func (s *Server) writeBody(w http.ResponseWriter, code int, encode func(io.Writer) error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	encode(w)
}

// writeJSON writes v in the canonical encoding (two-space indent, trailing
// newline — the same convention the CLI -json outputs use).
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError writes an ErrorResponse.
func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// writeCodedError writes an ErrorResponse carrying a machine-readable
// discriminator alongside the human-readable reason.
func (s *Server) writeCodedError(w http.ResponseWriter, code int, errCode string, err error) {
	s.writeJSON(w, code, ErrorResponse{Error: err.Error(), Code: errCode})
}

// writeBackoffError is writeError plus a Retry-After hint (429/503) and
// the matching "busy"/"draining" code.
func (s *Server) writeBackoffError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
	errCode := CodeBusy
	if code == http.StatusServiceUnavailable {
		errCode = CodeDraining
	}
	s.writeCodedError(w, code, errCode, err)
}
