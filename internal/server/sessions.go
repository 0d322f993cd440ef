package server

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/store"
	"repro/internal/tag"
)

// sessionRecordVersion is the wire version of the on-disk session record.
const sessionRecordVersion = 1

// sessionRecord is the durable form of a streaming session: everything
// needed to rebuild the automaton (the original spec and run options) plus
// the latest tag.Checkpoint. The checkpoint's fingerprint re-binds it to
// the recompiled automaton on restore, so a record from a different build
// or granularity configuration is refused rather than silently resumed.
type sessionRecord struct {
	Version        int       `json:"version"`
	ID             string    `json:"id"`
	Spec           core.Spec `json:"spec"`
	Strict         bool      `json:"strict,omitempty"`
	MaxFrontier    int       `json:"max_frontier,omitempty"`
	Budget         int64     `json:"budget,omitempty"`
	Events         int       `json:"events"`
	AcceptTime     int64     `json:"accept_time,omitempty"`
	HaveAcceptTime bool      `json:"have_accept_time,omitempty"`
	// LogStart is the session event count at which the durable event log
	// begins: log record i holds session event LogStart+i. Recovery feeds
	// the log tail past Events-LogStart back into the restored runner.
	LogStart   int64          `json:"log_start,omitempty"`
	Checkpoint tag.Checkpoint `json:"checkpoint"`
}

// session is one live streaming TAG run. Its mutex serializes feeds, polls
// and closure; the runner itself is not safe for concurrent use.
type session struct {
	mu sync.Mutex

	id     string
	spec   core.Spec
	strict bool
	maxFr  int
	budget int64

	auto   *tag.TAG
	runner *tag.Runner

	// log is the session's durable event log (nil after an open or append
	// failure degraded the session to checkpoint-per-feed).
	// logStart is the session event count at which the log begins;
	// sinceCkpt counts events fed since the last persisted checkpoint.
	log       *store.Store
	logStart  int64
	sinceCkpt int

	// events counts events presented (sticky post-acceptance feeds
	// included), which is what the CLI's "events=" field reports.
	events         int
	acceptTime     int64
	haveAcceptTime bool
	closed         bool
	// sealed marks a session mid-migration: feeds are refused with a typed
	// "migrating" error until the router either forgets the session (import
	// on the new owner succeeded) or unseals it (migration rolled back).
	sealed bool
}

// sessionStore owns the live sessions and their on-disk records.
type sessionStore struct {
	mu        sync.Mutex
	records   *recordDir
	sys       *granularity.System
	counters  *engine.Counters
	max       int
	ckptEvery int
	sessions  map[string]*session
}

func newSessionStore(dir string, sys *granularity.System, counters *engine.Counters, max int, ckptEvery int) (*sessionStore, error) {
	records, err := newRecordDir(dir, "session", "s")
	if err != nil {
		return nil, err
	}
	if ckptEvery < 1 {
		ckptEvery = 1
	}
	return &sessionStore{
		records:   records,
		sys:       sys,
		counters:  counters,
		max:       max,
		ckptEvery: ckptEvery,
		sessions:  make(map[string]*session),
	}, nil
}

// logOptions configures a session event log. SyncEvery stays at the
// default (every append) so an acknowledged feed is on disk before any
// checkpoint can claim to cover it.
func (st *sessionStore) logOptions() store.Options {
	return store.Options{SegmentMaxBytes: 256 << 10}
}

// runOptions builds the engine-backed run options for a session's runner.
// Restored runners get a fresh budget (RestoreRunner semantics), so Budget
// bounds the work per daemon lifetime.
func (st *sessionStore) runOptions(strict bool, maxFrontier int, budget int64) tag.RunOptions {
	return tag.RunOptions{
		Strict:      strict,
		MaxFrontier: maxFrontier,
		Engine:      engine.Config{Budget: budget, Observer: st.counters},
	}
}

// create compiles the complex type and opens a new session, persisting its
// initial record before returning the ID. A non-empty assignID (a router
// placing the session on its hash ring) overrides the local s%06d scheme
// under the recordDir claim rule.
func (st *sessionStore) create(req *SessionCreateRequest, ct *core.ComplexType, assignID string) (*session, error) {
	auto, err := tag.Compile(ct)
	if err != nil {
		return nil, err
	}
	st.mu.Lock()
	if len(st.sessions) >= st.max {
		st.mu.Unlock()
		return nil, fmt.Errorf("server: session limit (%d) reached: %w", st.max, errBusy)
	}
	id, err := st.records.claim(assignID)
	if err != nil {
		st.mu.Unlock()
		return nil, err
	}
	s := &session{
		id:     id,
		spec:   req.Spec,
		strict: req.Strict,
		maxFr:  req.MaxFrontier,
		budget: req.Budget,
		auto:   auto,
		runner: auto.NewRunner(st.sys, st.runOptions(req.Strict, req.MaxFrontier, req.Budget)),
	}
	st.sessions[id] = s
	st.mu.Unlock()

	if lg, _, err := store.Open(st.records.logDir(id), st.logOptions()); err != nil {
		// No log is a robustness downgrade, not a failure: the session
		// falls back to checkpoint-per-feed persistence.
		st.counters.Count("server.sessions.log_degraded", 1)
	} else {
		s.log = lg
	}
	if err := st.persist(s); err != nil {
		st.mu.Lock()
		delete(st.sessions, id)
		st.mu.Unlock()
		if s.log != nil {
			s.log.Close()
		}
		st.records.remove(id)
		return nil, err
	}
	st.counters.Count("server.sessions.created", 1)
	return s, nil
}

// get returns a live session.
func (st *sessionStore) get(id string) (*session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.sessions[id]
	return s, ok
}

// close removes a session, its record and its event log.
func (st *sessionStore) close(id string) bool {
	st.mu.Lock()
	s, ok := st.sessions[id]
	delete(st.sessions, id)
	st.mu.Unlock()
	if !ok {
		return false
	}
	s.mu.Lock()
	s.closed = true
	if s.log != nil {
		s.log.Close()
		s.log = nil
	}
	s.mu.Unlock()
	st.records.remove(id)
	return true
}

// count returns the number of live sessions.
func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.sessions)
}

// feed presents a batch of events to a session. Every consumed event is
// appended (and fsynced) to the session's event log before the feed is
// acknowledged; the JSON checkpoint is only rewritten every ckptEvery
// events — recovery replays the log tail past the last checkpoint. It
// returns the resulting stream view and, when an event was refused, which
// one and why (later events are not consumed).
func (st *sessionStore) feed(s *session, items []EventItem, after *int64) (*SessionStateResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("server: session %s is closed", s.id)
	}
	if s.sealed {
		return nil, fmt.Errorf("server: session %s is migrating: %w", s.id, errMigrating)
	}
	if after != nil && *after != int64(s.events) {
		return nil, fmt.Errorf("server: feed expects after=%d but session %s has consumed %d event(s): %w",
			*after, s.id, s.events, errFeedConflict)
	}
	var rej *RejectInfo
	for i, it := range items {
		wasAccepted := s.runner.Accepted()
		ev := event.Event{Time: it.Time, Type: event.Type(it.Type)}
		accepted, ok := s.runner.Feed(ev)
		if !ok {
			rej = &RejectInfo{Index: i, Reason: s.runner.LastReject().String()}
			break
		}
		s.events++
		s.sinceCkpt++
		// The guard skips events already on disk: after an interrupted
		// replay the runner lags the log, and re-appending the same event
		// would duplicate it.
		if s.log != nil && int64(s.events)-s.logStart > s.log.Len() {
			if _, err := s.log.Append(ev); err != nil {
				// Log storage failed (disk error, degraded store): degrade
				// to checkpoint-per-feed rather than refusing feeds.
				s.log.Close()
				s.log = nil
				st.counters.Count("server.sessions.log_degraded", 1)
			}
		}
		if accepted && !wasAccepted {
			s.acceptTime = it.Time
			s.haveAcceptTime = true
		}
	}
	if s.log == nil || rej != nil || s.sinceCkpt >= st.ckptEvery {
		if err := st.persist(s); err != nil {
			return nil, err
		}
	}
	st.counters.Count("server.sessions.events", int64(len(items)))
	resp := &SessionStateResponse{ID: s.id, Stream: s.streamLocked(), Rejected: rej}
	return resp, nil
}

// tail reads a session's durable event log for an attached incremental
// mining job: the records from index `from` onward plus the log's current
// length. A session without a live log (closed or degraded) cannot back an
// incremental job.
func (st *sessionStore) tail(id string, from int64) ([]store.Rec, int64, error) {
	s, ok := st.get(id)
	if !ok {
		return nil, 0, fmt.Errorf("server: no session %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.log == nil {
		return nil, 0, fmt.Errorf("server: session %s has no live event log", id)
	}
	n := s.log.Len()
	recs, err := s.log.ReadFrom(from)
	return recs, n, err
}

// state returns the current stream view without feeding.
func (st *sessionStore) state(s *session) *SessionStateResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SessionStateResponse{ID: s.id, Stream: s.streamLocked()}
}

// streamLocked builds the shared cli.StreamResult; callers hold s.mu.
func (s *session) streamLocked() *cli.StreamResult {
	sr := cli.StreamResultFromRunner(s.runner, s.events, s.acceptTime, s.haveAcceptTime)
	if err := s.runner.Err(); err != nil {
		sr.Interrupted = cli.InterruptedFrom(err)
	}
	return sr
}

// persist checkpoints a session's record atomically; callers hold s.mu (or
// the session is not yet published).
func (st *sessionStore) persist(s *session) error {
	cp, err := s.runner.Snapshot()
	if err != nil {
		return err
	}
	rec := sessionRecord{
		Version:        sessionRecordVersion,
		ID:             s.id,
		Spec:           s.spec,
		Strict:         s.strict,
		MaxFrontier:    s.maxFr,
		Budget:         s.budget,
		Events:         s.events,
		AcceptTime:     s.acceptTime,
		HaveAcceptTime: s.haveAcceptTime,
		LogStart:       s.logStart,
		Checkpoint:     cp,
	}
	if err := st.records.save(s.id, &rec); err != nil {
		return err
	}
	s.sinceCkpt = 0
	return nil
}

// checkpointAll persists every live session (the drain path; per-feed
// persistence makes this a formality unless a feed raced the drain).
func (st *sessionStore) checkpointAll() error {
	st.mu.Lock()
	all := make([]*session, 0, len(st.sessions))
	for _, s := range st.sessions {
		all = append(all, s)
	}
	st.mu.Unlock()
	var firstErr error
	for _, s := range all {
		s.mu.Lock()
		err := st.persist(s)
		s.mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// restore reloads every session record from disk into a live runner and
// replays each session's event-log tail past its last checkpoint, through
// the recordDir restore walk. A record that no longer validates (foreign
// fingerprint, changed build) is skipped with a log line rather than
// taking the daemon down. It reports the aggregate log recovery, how many
// sessions came back, and how many events were replayed from logs.
func (st *sessionStore) restore(logger *log.Logger) (agg store.Recovery, restored int, replayed int64, err error) {
	restored, err = st.records.restore(logger, func(id string) error {
		rec, n, err := st.load(id, logger)
		agg.Add(rec)
		replayed += n
		return err
	})
	return agg, restored, replayed, err
}

// load rebuilds the session stored under id (claimed by the caller) and
// makes it live.
func (st *sessionStore) load(id string, logger *log.Logger) (store.Recovery, int64, error) {
	var rec sessionRecord
	if err := st.records.load(id, &rec); err != nil {
		return store.Recovery{}, 0, err
	}
	if rec.ID != id {
		return store.Recovery{}, 0, fmt.Errorf("record of session %s holds id %q", id, rec.ID)
	}
	if rec.Version != sessionRecordVersion {
		return store.Recovery{}, 0, fmt.Errorf("session record version %d, this build reads %d", rec.Version, sessionRecordVersion)
	}
	ct, err := rec.Spec.ComplexType()
	if err != nil {
		return store.Recovery{}, 0, err
	}
	auto, err := tag.Compile(ct)
	if err != nil {
		return store.Recovery{}, 0, err
	}
	runner, err := tag.RestoreRunner(auto, st.sys, st.runOptions(rec.Strict, rec.MaxFrontier, rec.Budget), &rec.Checkpoint)
	if err != nil {
		return store.Recovery{}, 0, err
	}
	s := &session{
		id:             id,
		spec:           rec.Spec,
		strict:         rec.Strict,
		maxFr:          rec.MaxFrontier,
		budget:         rec.Budget,
		auto:           auto,
		runner:         runner,
		events:         rec.Events,
		acceptTime:     rec.AcceptTime,
		haveAcceptTime: rec.HaveAcceptTime,
		logStart:       rec.LogStart,
	}
	srec, replayed, err := st.attachAndReplay(s, logger)
	if err != nil {
		return srec, replayed, err
	}
	st.mu.Lock()
	st.sessions[id] = s
	st.mu.Unlock()
	st.counters.Count("server.sessions.restored", 1)
	return srec, replayed, nil
}

// attachAndReplay opens the session's event log and feeds the tail past
// the checkpoint's coverage back into the runner. A log that is degraded
// or shorter than what the checkpoint covers cannot be trusted to extend
// the session: it is set aside as <id>.events.damaged. Then, as for a
// record with no log at all (a checkpoint-only data dir, or a create whose
// log failed to open), a fresh log starts at the current event count — the
// checkpoint itself is intact, so nothing acknowledged is lost, only
// unreplayable tail evidence moves aside.
func (st *sessionStore) attachAndReplay(s *session, logger *log.Logger) (store.Recovery, int64, error) {
	dir := st.records.logDir(s.id)
	var rec store.Recovery
	if exists(dir) {
		lg, orec, err := store.Open(dir, st.logOptions())
		rec = orec
		if err != nil {
			return rec, 0, err
		}
		expected := int64(s.events) - s.logStart
		degraded, _ := lg.Degraded()
		have := lg.Len()
		if !degraded && expected >= 0 && have >= expected {
			s.log = lg
			replayed, rerr := st.replay(s, lg)
			if rerr != nil {
				lg.Close()
				s.log = nil
				return rec, replayed, rerr
			}
			if replayed > 0 {
				if err := st.persist(s); err != nil {
					logger.Printf("session %s: checkpoint after replay failed: %v", s.id, err)
				}
			}
			return rec, replayed, nil
		}
		lg.Close()
		damaged := dir + ".damaged"
		os.RemoveAll(damaged)
		if rerr := os.Rename(dir, damaged); rerr != nil {
			return rec, 0, fmt.Errorf("setting aside unusable event log: %w", rerr)
		}
		store.DirFS{}.SyncDir(st.records.dir)
		logger.Printf("session %s: event log unusable (degraded=%v, %d record(s) where the checkpoint covers %d); moved to %s",
			s.id, degraded, have, expected, filepath.Base(damaged))
		st.counters.Count("server.sessions.log_reset", 1)
	}
	fresh, frec, err := store.Open(dir, st.logOptions())
	rec.Add(frec)
	if err != nil {
		st.counters.Count("server.sessions.log_degraded", 1)
	} else {
		s.log = fresh
	}
	s.logStart = int64(s.events)
	if err := st.persist(s); err != nil {
		logger.Printf("session %s: checkpoint after log reset failed: %v", s.id, err)
	}
	return rec, 0, nil
}

// replay feeds the log records past the checkpoint's coverage into the
// runner. Replay stops at the first refused event (an interrupted runner
// keeps the rest of the tail on disk for the next restart — the feed path
// never re-appends events the log already holds).
func (st *sessionStore) replay(s *session, lg *store.Store) (int64, error) {
	recs, err := lg.ReadFrom(int64(s.events) - s.logStart)
	if err != nil {
		return 0, err
	}
	var replayed int64
	for _, r := range recs {
		wasAccepted := s.runner.Accepted()
		accepted, ok := s.runner.Feed(r.Event)
		if !ok {
			break
		}
		s.events++
		replayed++
		if accepted && !wasAccepted {
			s.acceptTime = r.Event.Time
			s.haveAcceptTime = true
		}
	}
	return replayed, nil
}
