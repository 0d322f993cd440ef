package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mining"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tag"
)

// The mine workload: a standalone tempod running mining jobs. Most ops
// submit a detached job with inline events and poll it until done; every
// refreshEvery-th op (after every two jobs) appends refreshBatch events to a
// live session and refreshes the incremental job attached to it until done.
const (
	jobSlots     = 64
	refreshEvery = 3
	mineSessions = 8
	// refreshBatch is small so that a refresh op is mostly the refresh:
	// every appended event is fsynced, and with 32 events an op its tail
	// followed the host's disk load (METRICS.md).
	refreshBatch = 8
	mineInitial  = 64
	// pollInterval is far below the job times (milliseconds to tens of
	// milliseconds), so polling adds at most this much to an op; it is
	// fixed so it adds the same on every run.
	pollInterval = time.Millisecond
)

// mineJob is one slot of the detached-job pool.
type mineJob struct {
	body  []byte
	seq   event.Sequence
	grans []string
	want  []byte // the job's result as cli.BuildMineResult renders mining.Optimized
	// tagRuns and discoveryRatio come from the reference mine.
	tagRuns        int
	discoveryRatio float64
}

// mineSession is a live session with an attached incremental job.
type mineSession struct {
	spec   core.Spec
	stream event.Sequence
	// want[n] is the reference result after refresh n (want[0] is the
	// attached job's first mine over the initial prefix).
	want  [][]byte
	id    string
	jobID string
	// shadow state for the traced phase's redrives
	inc    *mining.Incremental
	runner *tag.Runner
	log    *store.Store
	fed    int
}

type mineWorkload struct {
	jobs     []*mineJob
	sessions []*mineSession
	// problem is the attached jobs' problem spec, attached its build.
	problem  mining.ProblemSpec
	attached mining.Problem

	td *tempod
	c  *client
}

// rate gives 987 jobs and 493 refreshes in a 20-second run: both classes
// stay under the 1000 samples at which the tail rule moves from p90 to
// p99, so each tail rests on about 50 to 100 samples rather than 10 to 20.
// They take about 13 s on the bench machine; jobs twice as long filled
// the 20 s, but their runs drew several times the host steal of the other
// workloads' runs (METRICS.md).
func (w *mineWorkload) rate() int { return 74 }

// mineOp maps op i to a job slot or to a session refresh: refresh n of a
// session appends its n-th batch (n = 1 runs in the warm-up).
func mineOp(i int) (isRefresh bool, slot, sess, n int) {
	if i%refreshEvery == refreshEvery-1 {
		j := i / refreshEvery
		return true, 0, j % mineSessions, 2 + j/mineSessions
	}
	return false, (i - i/refreshEvery) % jobSlots, 0, 0
}

// jobProblem builds slot k's event stream and discovery problem. The
// generator cycles through stock (Figure 1(a), Example 2), plant
// cascades, ATM transactions and access intrusions; the slot fixes the
// stream's length (about 220 to 1250 events), so only the seeded contents
// change between seeds.
func jobProblem(k int, seed int64) (mining.ProblemSpec, event.Sequence) {
	m := 1 + (k/4)%4
	var ps mining.ProblemSpec
	var seq event.Sequence
	switch k % 4 {
	case 0:
		seq = event.GenerateStock(event.StockConfig{Symbols: []string{"IBM", "HP"}, StartYear: checkYear, Days: 60 * m, MoveProb: 0.1, Seed: seed})
		ps = mining.ProblemSpec{Structure: *core.ToSpec(core.Fig1a(), nil), MinConfidence: 0.25, Reference: "IBM-rise",
			Candidates: map[string][]string{"X3": {"IBM-fall"}}}
	case 1:
		seq = event.GeneratePlant(event.PlantFaultConfig{Machines: 6, StartYear: checkYear, Days: 90 * m, Seed: seed})
		ps = mining.ProblemSpec{Structure: plantSpec(), MinConfidence: 0.5, Reference: "overheat-m1"}
	case 2:
		seq = event.GenerateATM(event.ATMConfig{Accounts: 3, StartYear: checkYear, Days: 60 * m, PerDay: 1.2, Seed: seed})
		s := core.NewStructure()
		s.MustConstrain("X0", "X1", core.MustTCG(0, 0, "day"))
		s.MustConstrain("X1", "X2", core.MustTCG(0, 1, "b-day"))
		ps = mining.ProblemSpec{Structure: *core.ToSpec(s, nil), MinConfidence: 0.2, Reference: "deposit-0"}
	default:
		seq = generateAccess(event.AccessConfig{Hosts: 3, StartYear: checkYear, Days: 30 * m, IntrusionProb: 0.8, Seed: seed})
		s := core.NewStructure()
		s.MustConstrain("Scan", "Login", core.MustTCG(0, 0, "hour"))
		s.MustConstrain("Scan", "Breach", core.MustTCG(0, 0, "day"), core.MustTCG(1, 23, "hour"))
		ps = mining.ProblemSpec{Structure: *core.ToSpec(s, nil), MinConfidence: 0.4, References: []string{"scan-h0", "scan-h1", "scan-h2"}}
	}
	return ps, seq
}

// generateAccess is event.GenerateAccess, retried with the next generator
// seed while it panics: it calls rand.Int63n(0) when an intrusion's scan
// falls exactly on an hour boundary, about one intrusion in 3600. Unguarded,
// this pool's access streams hit it on 27 of seeds 1-300.
func generateAccess(cfg event.AccessConfig) event.Sequence {
	for {
		if seq, ok := tryGenerateAccess(cfg); ok {
			return seq
		}
		cfg.Seed++
	}
}

func tryGenerateAccess(cfg event.AccessConfig) (seq event.Sequence, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return event.GenerateAccess(cfg), true
}

// plantSpec is the plant cascade: an overheat, a malfunction 1-4 hours
// later on the same business day, a shutdown the next business day.
func plantSpec() core.Spec {
	s := core.NewStructure()
	s.MustConstrain("X0", "X1", core.MustTCG(0, 0, "b-day"), core.MustTCG(1, 4, "hour"))
	s.MustConstrain("X1", "X2", core.MustTCG(1, 1, "b-day"))
	return *core.ToSpec(s, nil)
}

func (w *mineWorkload) prepare(r *runCtx) error {
	rng := rand.New(rand.NewSource(r.seed))
	for k := 0; k < jobSlots; k++ {
		ps, seq := jobProblem(k, rng.Int63())
		body, err := json.Marshal(server.JobCreateRequest{Problem: ps, Events: items(seq)})
		if err != nil {
			return err
		}
		j := &mineJob{body: body, seq: seq}
		req, err := server.DecodeJobCreateRequest(bytes.NewReader(body))
		if err != nil {
			return err
		}
		p, work, _, err := req.Problem.Build(r.sys, toSeq(req.Events))
		if err != nil {
			return err
		}
		j.grans = p.Structure.Granularities()
		res, err := referenceMine(r, p, work, false)
		if err != nil {
			return err
		}
		if j.want, err = json.Marshal(res); err != nil {
			return err
		}
		j.tagRuns = res.Stats.TagRuns
		j.discoveryRatio = ratio(float64(len(res.Discoveries)), float64(res.Stats.Scanned))
		w.jobs = append(w.jobs, j)
	}

	// Attached jobs mine the plant cascade over each session's log.
	w.problem = mining.ProblemSpec{Structure: plantSpec(), MinConfidence: 0.3, Reference: "overheat-m0",
		Candidates: map[string][]string{"X1": {"malfunction-m0", "malfunction-m1", "pressure-drop-m0"}, "X2": {"shutdown-m0", "shutdown-m1"}}}
	p, _, _, err := w.problem.Build(r.sys, nil)
	if err != nil {
		return err
	}
	w.attached = p
	refreshes := r.total/refreshEvery/mineSessions + 3
	need := mineInitial + refreshBatch*refreshes
	for k := 0; k < mineSessions; k++ {
		ms := &mineSession{spec: sessionSpec()}
		ms.stream = sessionStream(rng, need)
		for n := 0; n < refreshes; n++ {
			res, err := referenceMine(r, p, ms.stream[:mineInitial+refreshBatch*n], true)
			if err != nil {
				return err
			}
			want, err := json.Marshal(res)
			if err != nil {
				return err
			}
			ms.want = append(ms.want, want)
		}
		w.sessions = append(w.sessions, ms)
	}
	return nil
}

// sessionStream draws a plant log of n events from four machines, starting
// in 2026, whose initial prefix holds the attached problem's reference type
// (a batch mine over a prefix without it has no answer to compare with).
// GeneratePlant is drawn day by day, and only the last business day's
// shutdowns (at most one per machine) land past its horizon; so with that
// many events to spare, the first n do not depend on the horizon, nor on n.
func sessionStream(rng *rand.Rand, n int) event.Sequence {
	const machines = 4
	for {
		seed := rng.Int63()
		var seq event.Sequence
		for days := 365; len(seq) < n+machines; days *= 2 {
			seq = event.GeneratePlant(event.PlantFaultConfig{Machines: machines, StartYear: checkYear, Days: days, Seed: seed})
		}
		if seq[:mineInitial].CountType("overheat-m0") > 0 {
			return seq[:n]
		}
	}
}

// sessionSpec types the plant cascade on machine 0 for the live sessions
// that back the attached jobs.
func sessionSpec() core.Spec {
	sp := plantSpec()
	sp.Assign = map[string]string{"X0": "overheat-m0", "X1": "malfunction-m0", "X2": "shutdown-m0"}
	return sp
}

// referenceMine is the batch answer for a job: mining.Optimized rendered
// by cli.BuildMineResult. For an attached job TagRuns is cleared, the one
// statistic the incremental miner does not share with the batch pipeline.
func referenceMine(r *runCtx, p mining.Problem, seq event.Sequence, attached bool) (*cli.MineResult, error) {
	ds, stats, err := mining.Optimized(r.sys, p, seq, mining.PipelineOptions{})
	if err != nil {
		return nil, err
	}
	res, err := cli.BuildMineResult(r.sys, p, seq, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
	if err != nil {
		return nil, err
	}
	if attached {
		res.Stats.TagRuns = 0
	}
	return res, nil
}

func toSeq(its []server.EventItem) event.Sequence {
	seq := make(event.Sequence, len(its))
	for k, it := range its {
		seq[k] = event.Event{Time: it.Time, Type: event.Type(it.Type)}
	}
	return seq
}

func (w *mineWorkload) reset(r *runCtx, dir string) error { return nil }

func (w *mineWorkload) start(r *runCtx, dir string) error {
	td, err := startTempod(dir, false, r.tr)
	if err != nil {
		return err
	}
	w.td, w.c = td, newClient(td.http.url, r.tr)
	// Warm-up: every job slot once, then each session is created with its
	// initial prefix, gets its attached job, and is refreshed once.
	for k := range w.jobs {
		if res := w.runJob(k); res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	for _, ms := range w.sessions {
		if err := w.openSession(ms); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	for k := range w.sessions {
		if res := w.refresh(k, 1); res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	return nil
}

// openSession creates a session, feeds it the initial prefix and attaches
// a job to it.
func (w *mineWorkload) openSession(ms *mineSession) error {
	body, err := json.Marshal(server.SessionCreateRequest{Spec: ms.spec})
	if err != nil {
		return err
	}
	code, out, err := w.c.do(http.MethodPost, "/v1/tag/sessions", body)
	if err != nil {
		return err
	}
	var created server.SessionCreateResponse
	if code != http.StatusCreated || json.Unmarshal(out, &created) != nil {
		return fmt.Errorf("session create: HTTP %d: %s", code, out)
	}
	ms.id = created.ID
	if err := w.append(ms, 0, mineInitial); err != nil {
		return err
	}
	body, err = json.Marshal(server.JobCreateRequest{Problem: w.problem, SessionID: ms.id})
	if err != nil {
		return err
	}
	code, out, err = w.c.do(http.MethodPost, "/v1/mining/jobs", body)
	if err != nil {
		return err
	}
	var st server.JobStatusResponse
	if code != http.StatusAccepted || json.Unmarshal(out, &st) != nil {
		return fmt.Errorf("attached job: HTTP %d: %s", code, out)
	}
	ms.jobID = st.ID
	return w.await(st.ID, ms.want[0], true)
}

// append feeds stream[lo:hi] to a session.
func (w *mineWorkload) append(ms *mineSession, lo, hi int) error {
	after := int64(lo)
	body, err := json.Marshal(server.EventsRequest{Events: items(ms.stream[lo:hi]), After: &after})
	if err != nil {
		return err
	}
	code, out, err := w.c.do(http.MethodPost, "/v1/tag/sessions/"+ms.id+"/events", body)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("session feed: HTTP %d: %s", code, out)
	}
	return err
}

// await polls a job every pollInterval until it leaves queued/running and
// checks its result.
func (w *mineWorkload) await(id string, want []byte, attached bool) error {
	for {
		time.Sleep(pollInterval)
		code, out, err := w.c.do(http.MethodGet, "/v1/mining/jobs/"+id, nil)
		if err != nil {
			return err
		}
		var st server.JobStatusResponse
		if code != http.StatusOK || json.Unmarshal(out, &st) != nil {
			return fmt.Errorf("job %s poll: HTTP %d: %s", id, code, out)
		}
		switch st.State {
		case server.JobQueued, server.JobRunning:
			continue
		case server.JobDone:
		default:
			return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		if attached && st.Result != nil && st.Result.Stats != nil {
			st.Result.Stats.TagRuns = 0
		}
		got, _ := json.Marshal(st.Result) // cannot fail: a plain struct
		if !bytes.Equal(got, want) {
			return fmt.Errorf("job %s: result differs from the batch reference:\n got %s\nwant %s", id, got, want)
		}
		return nil
	}
}

func (w *mineWorkload) stop() error {
	if w.td == nil {
		return nil
	}
	w.c.close()
	err := w.td.close()
	w.td = nil
	for _, ms := range w.sessions {
		if ms.log != nil {
			if cerr := ms.log.Close(); err == nil {
				err = cerr
			}
			ms.log = nil
		}
	}
	return err
}

func (w *mineWorkload) op(r *runCtx, i int) opResult {
	isRefresh, slot, sess, n := mineOp(i)
	if isRefresh {
		return w.refresh(sess, n)
	}
	return w.runJob(slot)
}

func (w *mineWorkload) runJob(k int) opResult {
	j := w.jobs[k]
	res := opResult{class: primary, units: 1}
	t0 := time.Now()
	code, out, err := w.c.do(http.MethodPost, "/v1/mining/jobs", j.body)
	var st server.JobStatusResponse
	if err == nil && (code != http.StatusAccepted || json.Unmarshal(out, &st) != nil) {
		err = fmt.Errorf("job submit: HTTP %d: %s", code, out)
	}
	if err == nil {
		err = w.await(st.ID, j.want, false)
	}
	res.dur = time.Since(t0)
	res.err = err
	return res
}

// refresh appends the session's next refreshBatch events and refreshes its
// attached job: refresh n leaves the session holding
// mineInitial+n*refreshBatch events.
func (w *mineWorkload) refresh(k, n int) opResult {
	ms := w.sessions[k]
	res := opResult{class: second, units: 1}
	lo := mineInitial + refreshBatch*(n-1)
	t0 := time.Now()
	err := w.append(ms, lo, lo+refreshBatch)
	if err == nil {
		var code int
		var out []byte
		code, out, err = w.c.do(http.MethodPost, "/v1/mining/jobs/"+ms.jobID+"/refresh", nil)
		if err == nil && code != http.StatusAccepted {
			err = fmt.Errorf("refresh: HTTP %d: %s", code, out)
		}
	}
	if err == nil {
		err = w.await(ms.jobID, ms.want[n], true)
	}
	res.dur = time.Since(t0)
	res.err = err
	return res
}

func (w *mineWorkload) counters() []*engine.Counters {
	return []*engine.Counters{w.td.srv.Counters()}
}

func (w *mineWorkload) redrive(r *runCtx, rec *opRecord) {
	isRefresh, slot, sess, n := mineOp(rec.i)
	if !isRefresh {
		j := w.jobs[slot]
		d := timed(r, "redrive.server.decode", rec.opSpan, func() { server.DecodeJobCreateRequest(bytes.NewReader(j.body)) })
		r.layer.add("server.decode_us", us(d))
		var pairs []tickPair
		step := max(1, len(j.seq)/64)
		for k := 0; k < len(j.seq); k += step {
			for _, g := range j.grans {
				pairs = append(pairs, tickPair{g, j.seq[k].Time})
			}
		}
		redriveTicks(r, rec.opSpan, pairs)
		redriveGrans(r, rec.opSpan, j.grans, j.seq[0].Time)
		return
	}
	ms := w.sessions[sess]
	lo := mineInitial + refreshBatch*(n-1)
	chunk := ms.stream[lo : lo+refreshBatch]
	after := int64(lo)
	body, _ := json.Marshal(server.EventsRequest{Events: items(chunk), After: &after}) // cannot fail: a plain struct
	d := timed(r, "redrive.server.decode", rec.opSpan, func() { server.DecodeEventsRequest(bytes.NewReader(body)) })
	r.layer.add("server.decode_us", us(d))
	if err := ms.catchUp(r, w.attached, lo); err != nil {
		return
	}
	var aerr error
	d = timed(r, "redrive.tag.feed", rec.opSpan, func() {
		for _, e := range chunk {
			ms.runner.Feed(e)
		}
	})
	r.layer.add("tag.feed_ns", float64(d.Nanoseconds())/float64(len(chunk)))
	d = timed(r, "redrive.store.append", rec.opSpan, func() {
		for _, e := range chunk {
			if _, err := ms.log.Append(e); err != nil && aerr == nil {
				aerr = err
			}
		}
	})
	r.layer.add("store.append_us", us(d))
	d = timed(r, "redrive.mining.refresh", rec.opSpan, func() {
		if err := ms.inc.AppendBatch(chunk); err != nil && aerr == nil {
			aerr = err
		}
		if _, _, err := ms.inc.Snapshot(); err != nil && aerr == nil {
			aerr = err
		}
	})
	r.layer.add("mining.refresh_us", us(d))
	if tick, ok := r.sys.TickOf("day", chunk[0].Time); ok {
		d = timed(r, "redrive.store.scan", rec.opSpan, func() { ms.log.ScanFromTick("day", tick) })
		r.layer.add("store.tail_scan_us", us(d))
	}
	ms.fed = lo + refreshBatch
}

// catchUp brings the session's shadow runner, log and incremental miner to
// the events before lo, untimed.
func (ms *mineSession) catchUp(r *runCtx, p mining.Problem, lo int) error {
	if ms.inc == nil {
		ct, err := ms.spec.ComplexType()
		if err != nil {
			return err
		}
		auto, err := tag.Compile(ct)
		if err != nil {
			return err
		}
		ms.runner = auto.NewRunner(r.sys, tag.RunOptions{})
		if ms.inc, err = mining.NewIncremental(r.sys, p, mining.PipelineOptions{}); err != nil {
			return err
		}
		if ms.log, _, err = store.Open(filepath.Join(r.root, "shadow", "mine-"+ms.id), sessionLogOptions(r.sys)); err != nil {
			return err
		}
	}
	if lo <= ms.fed {
		return nil
	}
	gap := ms.stream[ms.fed:lo]
	for _, e := range gap {
		ms.runner.Feed(e)
	}
	if _, err := ms.log.Append(gap...); err != nil {
		return err
	}
	if err := ms.inc.AppendBatch(gap); err != nil {
		return err
	}
	ms.fed = lo
	return nil
}

func (w *mineWorkload) analyze(r *runCtx, rec *opRecord, g *opSpans) {
	d := rec.delta
	stages := []string{"mining.step1_consistency", "mining.step2_reduce", "mining.step3_refprune", "mining.step4_screen", "mining.step5_scan"}
	var mineT time.Duration
	for _, st := range stages {
		mineT += d.stages[st]
	}
	r.layer.add("server.rejected", float64(d.countPrefix("server.rejected.")))
	r.layer.add("server.self_us", us(g.dur[spanWorker]))
	if ev := d.counts["tag.events"]; ev > 0 {
		perK := func(name string) float64 { return float64(d.counts[name]) * 1000 / float64(ev) }
		r.layer.add("tag.runs", perK("tag.runs.alive"))
		r.layer.add("tag.runs.killed", perK("tag.runs.killed"))
		r.layer.add("tag.runs.deduped", perK("tag.runs.deduped"))
		r.layer.add("tag.frontier.overflows", perK("tag.frontier.overflows"))
	}
	if isRefresh, slot, _, _ := mineOp(rec.i); !isRefresh {
		for k, st := range stages {
			r.layer.add(fmt.Sprintf("mining.step%d_ms", k+1), ms(d.stages[st]))
		}
		scanned := float64(d.counts["mining.candidates.scanned"])
		screened := float64(d.counts["mining.screened.k1"] + d.counts["mining.screened.k2"])
		r.layer.add("mining.candidates.scanned", scanned)
		r.layer.add("mining.screened_ratio", ratio(screened, screened+scanned))
		r.layer.add("mining.tag_runs", float64(w.jobs[slot].tagRuns))
		r.layer.add("mining.discovery_ratio", w.jobs[slot].discoveryRatio)
		r.layer.add("propagate.ms", ms(d.stages["propagate"]))
		r.layer.add("propagate.rounds", float64(d.counts["propagate.rounds"]))
		r.layer.add("propagate.conversions", float64(d.counts["propagate.conversions"]))
		r.layer.add("stp.relaxations", float64(d.counts["stp.relaxations"]))
	}
	residual(r, rec, g, mineT)
}

func (w *mineWorkload) totals(r *runCtx) {}
