package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/store"
)

var (
	// errNoJob reports a refresh against an unknown job ID (HTTP 404).
	errNoJob = errors.New("server: no such job")
	// errRefreshConflict reports a refresh the job cannot honor (HTTP 409
	// "refresh_conflict").
	errRefreshConflict = errors.New("refresh conflict")
)

// jobRecordVersion is the wire version of the on-disk job record. Version
// 2 added EventsLogged: the input sequence lives in the job's append-only
// event log (<id>.events/) and the record omits it. Version 1 records
// (inline events) still restore.
const jobRecordVersion = 2

// jobRecord is the durable form of a mining job: the full request (so an
// unfinished job can be re-run or resumed after a restart), its state, and
// — for interrupted jobs — the mining.Checkpoint to resume from. The
// checkpoint's fingerprint re-binds it to the rebuilt problem and
// sequence, so stale progress is re-run from scratch rather than trusted.
type jobRecord struct {
	Version int              `json:"version"`
	ID      string           `json:"id"`
	Request JobCreateRequest `json:"request"`
	// EventsLogged, when positive, is the number of input events stored in
	// the job's event log; Request.Events is omitted from the record then,
	// and restore reads the sequence back from the log (refusing a log
	// that is degraded or holds a different count).
	EventsLogged int64              `json:"events_logged,omitempty"`
	State        string             `json:"state"`
	Error        string             `json:"error,omitempty"`
	Result       *cli.MineResult    `json:"result,omitempty"`
	Checkpoint   *mining.Checkpoint `json:"checkpoint,omitempty"`
}

// job is one mining job. Its mutex guards the mutable fields; the request
// and eventsLogged are immutable after submission.
type job struct {
	mu sync.Mutex
	// persistMu serializes the job's record writes: the attempt that
	// finishes and the next one a refresh starts may persist at once, and
	// both write through the same <id>.json.tmp.
	persistMu sync.Mutex

	id           string
	req          JobCreateRequest
	eventsLogged int64
	state        string
	errMsg       string
	result       *cli.MineResult
	cp           *mining.Checkpoint
	// exported marks a job mid-migration (bundled for another worker, off
	// the queue): refresh refuses it until forget or reinstate resolves
	// the handover.
	exported bool
}

// status snapshots the poll view.
func (j *job) status() *JobStatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return &JobStatusResponse{ID: j.id, State: j.state, Error: j.errMsg, Result: j.result}
}

// sessionTailFunc reads a live session's durable event log for an
// attached incremental mining job: the records from index `from` onward
// (fromTime, when positive, is the timestamp at `from`, letting the read
// resume from the last consolidated tick instead of scanning the whole
// log) plus the log's current length — the attempt's high-water mark.
type sessionTailFunc func(id string, from, fromTime int64) ([]store.Rec, int64, error)

// jobStore owns the mining jobs: a bounded FIFO queue drained by a fixed
// worker pool. A job's record is persisted when it is accepted (submit,
// inject, refresh) and when an attempt ends.
type jobStore struct {
	mu             sync.Mutex
	cond           *sync.Cond
	records        *recordDir
	sys            *granularity.System
	counters       *engine.Counters
	depth          int
	defaultWorkers int
	sessionTail    sessionTailFunc
	jobs           map[string]*job
	queue          []*job
	running        int
	closed         bool

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newJobStore(dir string, sys *granularity.System, counters *engine.Counters, workers, depth, defaultScanWorkers int, sessionTail sessionTailFunc) (*jobStore, error) {
	records, err := newRecordDir(dir, "job", "j")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := &jobStore{
		records:        records,
		sys:            sys,
		counters:       counters,
		depth:          depth,
		defaultWorkers: defaultScanWorkers,
		sessionTail:    sessionTail,
		jobs:           make(map[string]*job),
		ctx:            ctx,
		cancel:         cancel,
	}
	st.cond = sync.NewCond(&st.mu)
	st.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go st.worker()
	}
	return st, nil
}

// submit enqueues a new job, persisting it as queued before returning the
// ID. The input sequence goes to the job's event log first, so the durable
// record stays small and the events are checksummed on disk. A full queue
// rejects with errBusy; a draining store with errDraining. A non-empty
// assignID (a router placing the job on its hash ring) overrides the local
// j%06d scheme under the recordDir claim rule.
func (st *jobStore) submit(req *JobCreateRequest, assignID string) (*job, error) {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return nil, errDraining
	}
	if len(st.queue) >= st.depth {
		st.mu.Unlock()
		return nil, errBusy
	}
	id, err := st.records.claim(assignID)
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	j := &job{id: id, req: *req, state: JobQueued}
	st.jobs[id] = j
	st.mu.Unlock()

	if err := st.install(j); err != nil {
		return nil, err
	}
	st.counters.Count("server.jobs.submitted", 1)
	st.enqueue(j)
	return j, nil
}

// install makes a newly claimed job durable before any worker can see it:
// the input sequence goes to the job's event log (or, should that fail,
// inline into the record), then the record. On failure the job and its
// files are gone again.
func (st *jobStore) install(j *job) error {
	if seq := toSequence(j.req.Events); len(seq) > 0 && seq.Validate() == nil {
		if err := st.records.writeLog(j.id, st.logOptions(), seq); err == nil {
			j.eventsLogged = int64(len(seq))
		} else {
			st.counters.Count("server.jobs.log_degraded", 1)
		}
	}
	if err := st.persist(j); err != nil {
		st.mu.Lock()
		delete(st.jobs, j.id)
		st.mu.Unlock()
		st.records.remove(j.id)
		return err
	}
	return nil
}

// enqueue queues a pending job for the workers.
func (st *jobStore) enqueue(j *job) {
	st.mu.Lock()
	j.mu.Lock()
	j.state = JobQueued
	j.mu.Unlock()
	st.queue = append(st.queue, j)
	st.cond.Signal()
	st.mu.Unlock()
}

// logOptions configures a job event log. Job logs are written once at
// submit, so syncing is deferred to Close (which fsyncs the tail).
func (st *jobStore) logOptions() store.Options {
	return store.Options{
		System:          st.sys,
		Grans:           []string{"day"},
		SegmentMaxBytes: 1 << 20,
		SyncEvery:       1 << 20,
	}
}

// readEventLog loads a job's input sequence back from its log, refusing a
// log that is missing, degraded, or holds a different number of events
// than the record claims — a job must re-run on its exact input or not at
// all.
func (st *jobStore) readEventLog(id string, want int64) (event.Sequence, store.Recovery, error) {
	dir := st.records.logDir(id)
	if _, err := os.Stat(dir); err != nil {
		return nil, store.Recovery{}, fmt.Errorf("event log missing: %w", err)
	}
	lg, rec, err := store.Open(dir, st.logOptions())
	if err != nil {
		return nil, rec, err
	}
	defer lg.Close()
	if deg, q := lg.Degraded(); deg {
		return nil, rec, fmt.Errorf("event log degraded (quarantined %s)", strings.Join(q, ", "))
	}
	seq, err := lg.Events()
	if err != nil {
		return nil, rec, err
	}
	if int64(len(seq)) != want {
		return nil, rec, fmt.Errorf("event log holds %d event(s), the record says %d", len(seq), want)
	}
	return seq, rec, nil
}

// removeEventLog drops a terminal job's event log. Callers persist the
// terminal record first: a crash between the two leaves a harmless orphan
// directory, never a live record pointing at a missing log.
func (st *jobStore) removeEventLog(j *job) {
	j.mu.Lock()
	had := j.eventsLogged > 0
	j.mu.Unlock()
	if had {
		os.RemoveAll(st.records.logDir(j.id))
	}
}

// get returns a job by ID.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// stats reports queue occupancy and per-state job counts.
func (st *jobStore) stats() (queued, running int, byState map[string]int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	byState = make(map[string]int)
	for _, j := range st.jobs {
		j.mu.Lock()
		byState[j.state]++
		j.mu.Unlock()
	}
	return len(st.queue), st.running, byState
}

// worker drains the queue until shutdown.
func (st *jobStore) worker() {
	defer st.wg.Done()
	for {
		st.mu.Lock()
		for len(st.queue) == 0 && !st.closed {
			st.cond.Wait()
		}
		if st.closed {
			// Leave still-queued jobs on disk for the next start.
			st.mu.Unlock()
			return
		}
		j := st.queue[0]
		st.queue = st.queue[1:]
		st.running++
		// Claim the job before releasing st.mu: export (cluster.go) checks
		// the state under st.mu, so it can never bundle a job a worker has
		// already picked up.
		j.mu.Lock()
		j.state = JobRunning
		j.mu.Unlock()
		st.mu.Unlock()

		st.run(j)

		st.mu.Lock()
		st.running--
		st.mu.Unlock()
	}
}

// run executes one attempt of a job: build the problem, run (or resume)
// the optimized pipeline under the attempt's engine config, and persist
// the outcome. An interrupted attempt (budget, deadline or drain) parks
// the job as "interrupted" with its checkpoint; the next daemon start
// resumes it. The attempt's start is not persisted: restore re-queues a
// pending record whatever state it names.
func (st *jobStore) run(j *job) {
	j.mu.Lock()
	resume := j.cp
	req := j.req
	j.mu.Unlock()
	if req.SessionID != "" {
		st.runIncremental(j, req, resume)
		return
	}

	seq := toSequence(req.Events)
	p, work, opt, err := req.Problem.Build(st.sys, seq)
	if err != nil {
		st.fail(j, err)
		return
	}
	opt.Workers = cli.ResolveWorkers(req.Workers, opt.Workers)
	if opt.Workers <= 0 {
		opt.Workers = st.defaultWorkers
	}
	ctx := st.ctx
	var cancel context.CancelFunc
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	opt.Engine = engine.Config{Ctx: ctx, Budget: req.Budget, Observer: st.counters}

	var (
		ds    []mining.Discovery
		stats mining.Stats
		next  *mining.Checkpoint
	)
	if resume != nil {
		ds, stats, next, err = mining.Resume(st.sys, p, work, opt, resume)
		if err == nil || errors.Is(err, engine.ErrInterrupted) {
			st.counters.Count("server.jobs.resumed", 1)
		}
	} else {
		ds, stats, next, err = mining.OptimizedCheckpoint(st.sys, p, work, opt)
	}
	switch {
	case err == nil:
		res, berr := cli.BuildMineResult(st.sys, p, work, ds, stats, p.MinConfidence, req.Explain, engine.ExecCompiled)
		if berr != nil {
			st.fail(j, berr)
			return
		}
		j.mu.Lock()
		j.state = JobDone
		j.result = res
		j.cp = nil
		j.mu.Unlock()
		st.counters.Count("server.jobs.completed", 1)
	case next != nil:
		j.mu.Lock()
		j.state = JobInterrupted
		j.cp = next
		j.mu.Unlock()
		st.counters.Count("server.jobs.interrupted", 1)
	default:
		st.fail(j, err)
		return
	}
	if err := st.persist(j); err != nil {
		st.fail(j, fmt.Errorf("persisting job: %w", err))
		return
	}
	j.mu.Lock()
	terminal := j.state == JobDone || j.state == JobFailed
	j.mu.Unlock()
	if terminal {
		st.removeEventLog(j)
	}
}

// runIncremental executes one attempt of a session-attached job: read the
// session log's suffix past the last consolidation point, feed it to the
// (restored) incremental miner, snapshot, and keep the new consolidation
// checkpoint on the done job — a later refresh or a restarted daemon
// re-mines only what the session appended since, never the whole log. A
// checkpoint the current log cannot honor (a high-water mark past the log
// end after a session log reset, or a changed problem) falls back to a
// full re-mine rather than trusting stale state.
func (st *jobStore) runIncremental(j *job, req JobCreateRequest, resume *mining.Checkpoint) {
	if st.sessionTail == nil {
		st.fail(j, fmt.Errorf("server: session-attached jobs are not wired to a session store"))
		return
	}
	p, _, opt, err := req.Problem.Build(st.sys, nil)
	if err != nil {
		st.fail(j, err)
		return
	}
	opt.Engine = engine.Config{Observer: st.counters}

	from, fromTime := int64(0), int64(0)
	if resume != nil && resume.Stage == mining.StageIncremental && resume.Incremental != nil {
		from, fromTime = resume.Incremental.ReplayFrom, resume.Incremental.ReplayTime
	} else {
		resume = nil
	}
	recs, logLen, err := st.sessionTail(req.SessionID, from, fromTime)
	if err != nil {
		st.fail(j, err)
		return
	}
	var inc *mining.Incremental
	if resume != nil {
		inc, err = mining.RestoreIncremental(st.sys, p, opt, resume, logLen)
		if err != nil {
			st.counters.Count("server.jobs.incremental_restarted", 1)
			resume = nil
			if recs, logLen, err = st.sessionTail(req.SessionID, 0, 0); err != nil {
				st.fail(j, err)
				return
			}
		} else {
			st.counters.Count("server.jobs.incremental_resumed", 1)
		}
	}
	if resume == nil {
		if inc, err = mining.NewIncremental(st.sys, p, opt); err != nil {
			st.fail(j, err)
			return
		}
	}
	// Batches amortize the per-event consolidation sweep; chunking keeps
	// the reference frontier from outgrowing its steady-state size.
	const batch = 1024
	for i := 0; i < len(recs); i += batch {
		end := min(i+batch, len(recs))
		seq := make(event.Sequence, 0, end-i)
		for _, r := range recs[i:end] {
			seq = append(seq, r.Event)
		}
		if err := inc.AppendBatch(seq); err != nil {
			st.fail(j, fmt.Errorf("replaying session log records [%d, %d): %w", recs[i].Index, recs[end-1].Index+1, err))
			return
		}
	}
	ds, stats, err := inc.Snapshot()
	if err != nil {
		st.fail(j, err)
		return
	}
	res, err := cli.BuildMineResult(st.sys, p, nil, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
	if err != nil {
		st.fail(j, err)
		return
	}
	cp, err := inc.Checkpoint()
	if err != nil {
		st.fail(j, err)
		return
	}
	j.mu.Lock()
	j.state = JobDone
	j.result = res
	j.cp = cp // retained: the next refresh resumes from this high-water mark
	j.mu.Unlock()
	st.counters.Count("server.jobs.completed", 1)
	if err := st.persist(j); err != nil {
		st.fail(j, fmt.Errorf("persisting job: %w", err))
	}
}

// refresh re-enqueues a done session-attached job so its next attempt
// re-mines only the suffix the session appended since the job's last
// consolidation checkpoint. A job already queued or running is returned
// as-is (refresh is idempotent while an attempt is pending). Either way
// the job's record is persisted before refresh returns, so an
// acknowledged refresh survives a crash: restore re-queues the record
// instead of keeping the old result.
func (st *jobStore) refresh(id string) (*job, error) {
	j, err := st.requeue(id)
	if err != nil {
		return nil, err
	}
	if err := st.persist(j); err != nil {
		return nil, fmt.Errorf("server: persisting job %s: %w", id, err)
	}
	return j, nil
}

// requeue is refresh's state change, under st.mu.
func (st *jobStore) requeue(id string) (*job, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	if !ok {
		return nil, errNoJob
	}
	if st.closed {
		return nil, errDraining
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case j.exported:
		return nil, fmt.Errorf("server: job %s is mid-migration: %w", id, errMigrating)
	case j.req.SessionID == "":
		return nil, fmt.Errorf("server: job %s is not attached to a session: %w", id, errRefreshConflict)
	case j.state == JobQueued || j.state == JobRunning:
		return j, nil
	case len(st.queue) >= st.depth:
		return nil, errBusy
	}
	j.state = JobQueued
	j.errMsg = ""
	st.queue = append(st.queue, j)
	st.cond.Signal()
	st.counters.Count("server.jobs.refreshed", 1)
	return j, nil
}

// fail marks a job failed and persists the terminal state (best effort);
// the event log goes away only once the terminal record is durable.
func (st *jobStore) fail(j *job, err error) {
	j.mu.Lock()
	j.state = JobFailed
	j.errMsg = err.Error()
	j.cp = nil
	j.mu.Unlock()
	st.counters.Count("server.jobs.failed", 1)
	if st.persist(j) == nil {
		st.removeEventLog(j)
	}
}

// persist writes the job's record atomically. When the input sequence is
// in the event log, the record omits its inline copy. Writes of one job
// are serialized and each snapshots the job under that lock, so the last
// write carries the latest state.
func (st *jobStore) persist(j *job) error {
	j.persistMu.Lock()
	defer j.persistMu.Unlock()
	j.mu.Lock()
	rec := jobRecord{
		Version:      jobRecordVersion,
		ID:           j.id,
		Request:      j.req,
		EventsLogged: j.eventsLogged,
		State:        j.state,
		Error:        j.errMsg,
		Result:       j.result,
		Checkpoint:   j.cp,
	}
	j.mu.Unlock()
	if rec.EventsLogged > 0 {
		rec.Request.Events = nil
	}
	return st.records.save(rec.ID, &rec)
}

// restore reloads job records from disk through the recordDir restore
// walk. Finished jobs stay pollable; queued, interrupted and (crashed
// mid-)running jobs are re-enqueued in ID order — interrupted ones resume
// from their checkpoint, and their input sequences come back from the
// per-job event logs. It reports the aggregate log recovery and how many
// jobs came back.
func (st *jobStore) restore(logger *log.Logger) (agg store.Recovery, restored int, err error) {
	restored, err = st.records.restore(logger, func(id string) error {
		rec, err := st.load(id)
		agg.Add(rec)
		return err
	})
	return agg, restored, err
}

// check refuses a record of another build or with an unknown state.
func (rec *jobRecord) check() error {
	if rec.Version != 1 && rec.Version != jobRecordVersion {
		return fmt.Errorf("job record version %d, this build reads %d", rec.Version, jobRecordVersion)
	}
	switch rec.State {
	case JobQueued, JobRunning, JobDone, JobFailed, JobInterrupted:
		return nil
	}
	return fmt.Errorf("job record has unknown state %q", rec.State)
}

// pending reports whether the record's job still has an attempt to run.
func (rec *jobRecord) pending() bool {
	return rec.State == JobQueued || rec.State == JobRunning || rec.State == JobInterrupted
}

// load rebuilds the job stored under id (claimed by the caller), making it
// pollable and re-queueing it when it is pending.
func (st *jobStore) load(id string) (store.Recovery, error) {
	var rec jobRecord
	if err := st.records.load(id, &rec); err != nil {
		return store.Recovery{}, err
	}
	if rec.ID != id {
		return store.Recovery{}, fmt.Errorf("record of job %s holds id %q", id, rec.ID)
	}
	if err := rec.check(); err != nil {
		return store.Recovery{}, err
	}
	j := &job{id: id, req: rec.Request, eventsLogged: rec.EventsLogged, state: rec.State, errMsg: rec.Error, result: rec.Result, cp: rec.Checkpoint}
	var srec store.Recovery
	if rec.pending() {
		if rec.EventsLogged > 0 {
			seq, lrec, lerr := st.readEventLog(id, rec.EventsLogged)
			srec = lrec
			if lerr != nil {
				return srec, fmt.Errorf("reading event log: %w", lerr)
			}
			j.req.Events = toItems(seq)
		}
	} else {
		// Terminal jobs no longer need their input; drop any leftover log
		// (the daemon may have crashed between persisting the terminal
		// record and removing the log).
		os.RemoveAll(st.records.logDir(id))
	}
	st.mu.Lock()
	st.jobs[id] = j
	st.mu.Unlock()
	if rec.pending() {
		// A record marked running (older builds persisted each attempt's
		// start; a refresh persists a running job as it finds it) means the
		// daemon died mid-attempt; its checkpoint (if any) is the last
		// persisted one.
		st.enqueue(j)
		st.counters.Count("server.jobs.requeued", 1)
	}
	return srec, nil
}

// shutdown interrupts running attempts (their checkpoints persist as
// "interrupted"), stops the workers, and waits for them to exit. Queued
// jobs stay queued on disk and run on the next start.
func (st *jobStore) shutdown() {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		st.wg.Wait()
		return
	}
	st.closed = true
	st.mu.Unlock()
	st.cancel()
	st.mu.Lock()
	st.cond.Broadcast()
	st.mu.Unlock()
	st.wg.Wait()
}
