package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/tag"
)

// The live workload: a router in front of two worker tempods. Most ops
// feed one 32-event batch to one of 16 long-lived sessions, round robin;
// every churnEvery-th op creates a session, feeds it one batch and deletes
// it. Every acknowledged event is appended and fsynced to the session's
// log before the ack, and the session record is checkpointed every 8
// events (tempod's defaults).
const (
	liveSessions = 16
	liveBatch    = 32
	churnEvery   = 4
	churnPool    = 8
	// The seeding pass feeds each long-lived session a prefix of seedEvents
	// in one request, so start-up recovers logs of a few hundred records
	// per session.
	seedEvents = 261
)

// liveTypes are the event types of the live streams. No stream carries
// liveFinal, so a long-lived session never accepts and every fed event is
// stepped through its automaton (acceptance is sticky: an accepted session
// would consume later events as no-ops).
var liveTypes = []string{"login", "txn", "alert", "audit", "logout"}

const liveFinal = "escalate"

var workerNames = []string{"w0", "w1"}

type liveSession struct {
	id     string
	spec   core.Spec
	ct     *core.ComplexType
	grans  []string
	stream event.Sequence // every event the session is ever fed, in order
	// want[b] is the reference stream view after batch b of the run (the
	// seeding prefix comes before batch 0).
	want [][]byte
	// shadow state for the traced phase's redrives
	runner *tag.Runner
	fed    int
	log    *store.Store
	logged int
}

type churnCase struct {
	spec       core.Spec
	events     event.Sequence
	ct         *core.ComplexType
	createBody []byte
	feedBody   []byte
	want       []byte
}

type liveWorkload struct {
	sessions []*liveSession
	churn    []*churnCase
	template string

	workers []*tempod
	router  *cluster.Router
	rhttp   *loopback
	c       *client
}

func (w *liveWorkload) rate() int { return 25 }

// liveStructure builds slot k's complex type over hour, b-day, day-et and
// session clocks. The slot fixes the ranges, so the work per event stays
// the same under every seed; the seed picks which stream types fill the
// variables. final, when set, types a fourth variable that must follow
// within one or two trading sessions.
func liveStructure(rng *rand.Rand, k int, final string) core.Spec {
	s := core.NewStructure()
	s.MustConstrain("X0", "X1", core.MustTCG(0, 1+int64(k%4), "hour"))
	s.MustConstrain("X1", "X2", core.MustTCG(0, int64(k/4%2), "b-day"))
	s.MustConstrain("X0", "X2", core.MustTCG(0, 1+int64(k/8%2), "day-et"))
	perm := rng.Perm(len(liveTypes))
	assign := map[core.Variable]event.Type{
		"X0": event.Type(liveTypes[perm[0]]),
		"X1": event.Type(liveTypes[perm[1]]),
		"X2": event.Type(liveTypes[perm[2]]),
	}
	if final != "" {
		s.MustConstrain("X2", "X3", core.MustTCG(0, 1+int64(k%2), "session"))
		assign["X3"] = event.Type(final)
	}
	return *core.ToSpec(s, assign)
}

// liveStream draws n events from start with 1-40 minute gaps.
func liveStream(rng *rand.Rand, start int64, n int) event.Sequence {
	seq := make(event.Sequence, n)
	t := start
	for k := range seq {
		t += 60 + rng.Int63n(2340)
		seq[k] = event.Event{Time: t, Type: event.Type(liveTypes[rng.Intn(len(liveTypes))])}
	}
	return seq
}

// liveOp maps op i to its session batch or churn case: every churnEvery-th
// op is churn. Warm-up uses batch 0 of every session and churn cases
// 0..churnPool-1, so measured ops start after them.
func liveOp(i int) (isChurn bool, sess, batch, churn int) {
	if i%churnEvery == churnEvery-1 {
		return true, 0, 0, (churnPool + i/churnEvery) % churnPool
	}
	p := liveSessions + i - i/churnEvery
	return false, p % liveSessions, p / liveSessions, 0
}

// drawLive draws a seed's live inputs: each session's complex type and a
// stream holding the seeding prefix and the given number of batches, and
// each churn case's type and batch. Every session and churn case draws
// from its own generator, seeded in a fixed order, and a stream is drawn
// event by event; so a run that needs more batches (a longer or traced
// run) only extends the streams.
func drawLive(seed int64, batches int) ([]*liveSession, []*churnCase) {
	seeds := rand.New(rand.NewSource(seed))
	rngs := make([]*rand.Rand, liveSessions+churnPool)
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(seeds.Int63()))
	}
	start := event.At(checkYear, 1, 1, 0, 0, 0)
	var sessions []*liveSession
	for k := 0; k < liveSessions; k++ {
		rng := rngs[k]
		ls := &liveSession{id: fmt.Sprintf("live-%02d", k), spec: liveStructure(rng, k, liveFinal)}
		ls.stream = liveStream(rng, start+rng.Int63n(86400), seedEvents+batches*liveBatch)
		sessions = append(sessions, ls)
	}
	var churn []*churnCase
	for k := 0; k < churnPool; k++ {
		rng := rngs[liveSessions+k]
		cc := &churnCase{spec: liveStructure(rng, k, "")}
		cc.events = liveStream(rng, start+rng.Int63n(200*86400), liveBatch)
		churn = append(churn, cc)
	}
	return sessions, churn
}

func (w *liveWorkload) prepare(r *runCtx) error {
	batches := (liveSessions+r.total)/liveSessions + 1
	w.sessions, w.churn = drawLive(r.seed, batches)
	for _, ls := range w.sessions {
		ct, err := ls.spec.ComplexType()
		if err != nil {
			return err
		}
		ls.ct = ct
		ls.grans = ct.Structure.Granularities()
		// Reference: a from-scratch runner over the session's prefix.
		ref, err := newReplay(r, ct)
		if err != nil {
			return err
		}
		ref.feed(ls.stream[:seedEvents])
		for b := 0; b < batches; b++ {
			lo := seedEvents + b*liveBatch
			ref.feed(ls.stream[lo : lo+liveBatch])
			want, err := ref.view()
			if err != nil {
				return err
			}
			ls.want = append(ls.want, want)
		}
	}
	for _, cc := range w.churn {
		ct, err := cc.spec.ComplexType()
		if err != nil {
			return err
		}
		cc.ct = ct
		if cc.createBody, err = json.Marshal(server.SessionCreateRequest{Spec: cc.spec}); err != nil {
			return err
		}
		zero := int64(0)
		if cc.feedBody, err = json.Marshal(server.EventsRequest{Events: items(cc.events), After: &zero}); err != nil {
			return err
		}
		ref, err := newReplay(r, ct)
		if err != nil {
			return err
		}
		ref.feed(cc.events)
		if cc.want, err = ref.view(); err != nil {
			return err
		}
	}
	w.template = filepath.Join(r.root, "template")
	return w.seed(cluster.NewRing(workerNames, 0))
}

// replay is a from-scratch TAG run over a session's events: the reference
// a session's acks are checked against.
type replay struct {
	run        *tag.Runner
	events     int
	acceptTime int64
	accepted   bool
}

func newReplay(r *runCtx, ct *core.ComplexType) (*replay, error) {
	auto, err := tag.Compile(ct)
	if err != nil {
		return nil, err
	}
	return &replay{run: auto.NewRunner(r.sys, tag.RunOptions{})}, nil
}

func (rp *replay) feed(evs event.Sequence) {
	for _, e := range evs {
		was := rp.run.Accepted()
		if acc, ok := rp.run.Feed(e); ok && acc && !was {
			rp.acceptTime, rp.accepted = e.Time, true
		}
		rp.events++
	}
}

// view renders the stream view tempod acknowledges a feed with.
func (rp *replay) view() ([]byte, error) {
	return json.Marshal(cli.StreamResultFromRunner(rp.run, rp.events, rp.acceptTime, rp.accepted))
}

// seed pre-fills the workers' data dirs: each long-lived session is created
// on its ring owner and fed its prefix, then the workers drain.
func (w *liveWorkload) seed(ring *cluster.Ring) error {
	handlers := map[string]*server.Server{}
	for _, name := range workerNames {
		s, err := server.New(server.Config{DataDir: filepath.Join(w.template, name), Internal: true, Logger: discardLogger()})
		if err != nil {
			return err
		}
		defer s.Drain(context.Background())
		handlers[name] = s
	}
	prefix := seedEvents
	for _, ls := range w.sessions {
		h := handlers[ring.Owner(ls.id)].Handler()
		body, err := json.Marshal(server.SessionCreateRequest{Spec: ls.spec})
		if err != nil {
			return err
		}
		if code, out := call(h, http.MethodPost, "/v1/tag/sessions", ls.id, body); code != http.StatusCreated {
			return fmt.Errorf("seeding session %s: HTTP %d: %s", ls.id, code, out)
		}
		after := int64(0)
		body, err = json.Marshal(server.EventsRequest{Events: items(ls.stream[:prefix]), After: &after})
		if err != nil {
			return err
		}
		if code, out := call(h, http.MethodPost, "/v1/tag/sessions/"+ls.id+"/events", "", body); code != http.StatusOK {
			return fmt.Errorf("seeding session %s: HTTP %d: %s", ls.id, code, out)
		}
	}
	return nil
}

// call serves one request on a handler in-process.
func call(h http.Handler, method, path, assignID string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if assignID != "" {
		req.Header.Set(server.AssignIDHeader, assignID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func items(seq event.Sequence) []server.EventItem {
	out := make([]server.EventItem, len(seq))
	for k, e := range seq {
		out[k] = server.EventItem{Time: e.Time, Type: string(e.Type)}
	}
	return out
}

func (w *liveWorkload) reset(r *runCtx, dir string) error { return copyDir(w.template, dir) }

func (w *liveWorkload) start(r *runCtx, dir string) error {
	var specs []cluster.WorkerSpec
	var segs, recs int64
	var recovery time.Duration
	for _, name := range workerNames {
		td, err := startTempod(filepath.Join(dir, name), true, r.tr)
		if err != nil {
			return err
		}
		w.workers = append(w.workers, td)
		specs = append(specs, cluster.WorkerSpec{Name: name, URL: td.http.url})
		s, n := td.recoveryCounts()
		segs, recs, recovery = segs+s, recs+n, recovery+td.recovery
	}
	r.layer.add("store.recover_ms", ms(recovery))
	r.layer.add("store.recover.segments_scanned", float64(segs))
	r.layer.add("store.recover.records_replayed", float64(recs))
	rt, err := cluster.New(cluster.Config{Workers: specs, Logger: discardLogger()})
	if err != nil {
		return err
	}
	w.router = rt
	if w.rhttp, err = serve(r.tr.wrap(spanRouter, levelRouter, rt.Handler())); err != nil {
		return err
	}
	w.c = newClient(w.rhttp.url, r.tr)
	// Warm-up: the first batch of every long-lived session (the router
	// learns each placement on first use) and every churn type once.
	for k := range w.sessions {
		if res := w.feed(k, 0); res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	for k := range w.churn {
		if res := w.doChurn(k); res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	return nil
}

func (w *liveWorkload) stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if w.c != nil {
		w.c.close()
		w.c = nil
	}
	if w.rhttp != nil {
		keep(w.rhttp.close())
		w.rhttp = nil
	}
	if w.router != nil {
		w.router.Close()
		w.router = nil
	}
	for _, td := range w.workers {
		keep(td.close())
	}
	w.workers = nil
	for _, ls := range w.sessions {
		if ls.log != nil {
			keep(ls.log.Close())
			ls.log = nil
		}
	}
	return first
}

func (w *liveWorkload) op(r *runCtx, i int) opResult {
	isChurn, sess, batch, churn := liveOp(i)
	if isChurn {
		return w.doChurn(churn)
	}
	return w.feed(sess, batch)
}

// feedBody is the request of batch b of a long-lived session.
func (ls *liveSession) feedBody(b int) []byte {
	lo := seedEvents + b*liveBatch
	after := int64(lo)
	// Marshalling these plain request and result structs cannot fail.
	body, _ := json.Marshal(server.EventsRequest{Events: items(ls.stream[lo : lo+liveBatch]), After: &after})
	return body
}

func (w *liveWorkload) feed(k, b int) opResult {
	ls := w.sessions[k]
	body := ls.feedBody(b)
	res := opResult{class: primary, units: liveBatch}
	t0 := time.Now()
	code, out, err := w.c.do(http.MethodPost, "/v1/tag/sessions/"+ls.id+"/events", body)
	res.dur = time.Since(t0)
	if err == nil {
		err = checkAck(code, out, ls.id, ls.want[b])
	}
	res.err = err
	return res
}

// checkAck compares a feed reply's stream view with the reference.
func checkAck(code int, out []byte, id string, want []byte) error {
	if code != http.StatusOK {
		return fmt.Errorf("feed %s: HTTP %d: %s", id, code, out)
	}
	var resp server.SessionStateResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("feed %s: %v", id, err)
	}
	got, _ := json.Marshal(resp.Stream) // cannot fail: a plain struct
	if resp.ID != id || resp.Rejected != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("feed %s: ack differs from a from-scratch replay:\n got %s\nwant %s", id, got, want)
	}
	return nil
}

func (w *liveWorkload) doChurn(k int) opResult {
	cc := w.churn[k]
	res := opResult{class: second, units: liveBatch}
	t0 := time.Now()
	code, out, err := w.c.do(http.MethodPost, "/v1/tag/sessions", cc.createBody)
	var created server.SessionCreateResponse
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("churn create: HTTP %d: %s", code, out)
	}
	if err == nil {
		err = json.Unmarshal(out, &created)
	}
	if err == nil {
		code, out, err = w.c.do(http.MethodPost, "/v1/tag/sessions/"+created.ID+"/events", cc.feedBody)
		if err == nil {
			err = checkAck(code, out, created.ID, cc.want)
		}
	}
	if err == nil {
		code, out, err = w.c.do(http.MethodDelete, "/v1/tag/sessions/"+created.ID, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("churn delete: HTTP %d: %s", code, out)
		}
	}
	res.dur = time.Since(t0)
	res.err = err
	return res
}

func (w *liveWorkload) counters() []*engine.Counters {
	cs := []*engine.Counters{w.router.Counters()}
	for _, td := range w.workers {
		cs = append(cs, td.srv.Counters())
	}
	return cs
}

// sessionLogOptions mirrors tempod's session-log configuration: a "day"
// tick index, 256 KiB segments and an fsync on every append.
func sessionLogOptions(sys *granularity.System) store.Options {
	return store.Options{System: sys, Grans: []string{"day"}, SegmentMaxBytes: 256 << 10}
}

func (w *liveWorkload) redrive(r *runCtx, rec *opRecord) {
	isChurn, k, b, churn := liveOp(rec.i)
	if isChurn {
		cc := w.churn[churn]
		d := timed(r, "redrive.server.decode", rec.opSpan, func() {
			server.DecodeSessionCreateRequest(bytes.NewReader(cc.createBody))
			server.DecodeEventsRequest(bytes.NewReader(cc.feedBody))
		})
		r.layer.add("server.decode_us", us(d))
		d = timed(r, "redrive.tag.compile", rec.opSpan, func() { tag.Compile(cc.ct) })
		r.layer.add("tag.compile_us", us(d))
		return
	}
	ls := w.sessions[k]
	body := ls.feedBody(b)
	d := timed(r, "redrive.server.decode", rec.opSpan, func() { server.DecodeEventsRequest(bytes.NewReader(body)) })
	r.layer.add("server.decode_us", us(d))

	lo := seedEvents + b*liveBatch
	batch := ls.stream[lo : lo+liveBatch]
	tagT, storeT, err := ls.redrive(r, rec.opSpan, lo, batch)
	if err != nil {
		return
	}
	rec.redrive = tagT + storeT
	r.layer.add("tag.feed_ns", float64(tagT.Nanoseconds())/float64(len(batch)))
	r.layer.add("store.append_us", us(storeT))

	var pairs []tickPair
	for _, e := range batch {
		for _, g := range ls.grans {
			pairs = append(pairs, tickPair{g, e.Time})
		}
	}
	redriveTicks(r, rec.opSpan, pairs)
	redriveGrans(r, rec.opSpan, ls.grans, batch[0].Time)
}

// redrive feeds a batch to the session's shadow runner (first catching it
// up, untimed, to the events before lo) and appends it, one fsynced record
// per event, to a shadow log with tempod's session-log options.
func (ls *liveSession) redrive(r *runCtx, parent, lo int, batch event.Sequence) (tagT, storeT time.Duration, err error) {
	if ls.runner == nil {
		auto, err := tag.Compile(ls.ct)
		if err != nil {
			return 0, 0, err
		}
		ls.runner = auto.NewRunner(r.sys, tag.RunOptions{})
	}
	for ; ls.fed < lo; ls.fed++ {
		ls.runner.Feed(ls.stream[ls.fed])
	}
	if ls.log == nil {
		lg, _, err := store.Open(filepath.Join(r.root, "shadow", ls.id), sessionLogOptions(r.sys))
		if err != nil {
			return 0, 0, err
		}
		ls.log = lg
	}
	tagT = timed(r, "redrive.tag.feed", parent, func() {
		for _, e := range batch {
			ls.runner.Feed(e)
		}
	})
	ls.fed += len(batch)
	storeT = timed(r, "redrive.store.append", parent, func() {
		for _, e := range batch {
			if _, aerr := ls.log.Append(e); aerr != nil && err == nil {
				err = aerr
			}
		}
	})
	ls.logged += len(batch)
	return tagT, storeT, err
}

func (w *liveWorkload) analyze(r *runCtx, rec *opRecord, g *opSpans) {
	d := rec.delta
	r.layer.add("cluster.proxy_us", us(g.dur[spanRouter]-g.dur[spanWorker]))
	r.layer.add("cluster.proxy.retries", float64(d.counts["cluster.proxy.retries"]))
	r.layer.add("server.rejected", float64(d.countPrefix("server.rejected.")))
	if ev := d.counts["tag.events"]; ev > 0 {
		perK := func(name string) float64 { return float64(d.counts[name]) * 1000 / float64(ev) }
		r.layer.add("tag.runs", perK("tag.runs.alive"))
		r.layer.add("tag.runs.killed", perK("tag.runs.killed"))
		r.layer.add("tag.runs.deduped", perK("tag.runs.deduped"))
		r.layer.add("tag.frontier.overflows", perK("tag.frontier.overflows"))
	}
	if rec.res.class == primary {
		r.layer.add("server.self_us", us(g.dur[spanWorker]-d.stageTotal()-rec.redrive))
	}
	residual(r, rec, g, 0)
}

func (w *liveWorkload) totals(r *runCtx) {
	ring := cluster.NewRing(workerNames, 0)
	per := map[string]int{}
	for _, ls := range w.sessions {
		per[ring.Owner(ls.id)]++
	}
	most := 0
	for _, n := range per {
		most = max(most, n)
	}
	r.layer.add("cluster.placement_skew", float64(most)*float64(len(workerNames))/float64(len(w.sessions)))
	var bytes, events int64
	for _, ls := range w.sessions {
		if ls.logged == 0 {
			continue
		}
		events += int64(ls.logged)
		filepath.Walk(filepath.Join(r.root, "shadow", ls.id), func(_ string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				bytes += info.Size()
			}
			return nil
		})
	}
	if events > 0 {
		r.layer.add("store.bytes_per_event", float64(bytes)/float64(events))
	}
}
