package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
)

// newTestServer builds a Server over a temp data dir and serves it.
func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{DataDir: t.TempDir()}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.jobs.shutdown() })
	return srv, ts
}

func mustReadFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// checkRequestJSON wraps testdata/example1.json into a CheckRequest body.
func checkRequestJSON(t *testing.T, extra string) []byte {
	t.Helper()
	spec := strings.TrimSpace(string(mustReadFile(t, "../../testdata/example1.json")))
	return []byte(`{"spec":` + spec + extra + `}`)
}

func post(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// expectedCheckBody runs the same check through the shared encoder — the
// bytes `tcgcheck -json` prints for testdata/example1.json.
func expectedCheckBody(t *testing.T, exact bool, from, to int) []byte {
	t.Helper()
	_, structure, err := DecodeCheckRequest(bytes.NewReader(checkRequestJSON(t, "")))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.RunCheck(granularity.Default(), structure, cli.CheckOptions{Exact: exact, FromYear: from, ToYear: to})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckMatchesEncoder: the /v1/check body is exactly the shared
// encoder's output, with and without the exact solver.
func TestCheckMatchesEncoder(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := post(t, ts.URL+"/v1/check", checkRequestJSON(t, ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := readBody(t, resp)
	if want := expectedCheckBody(t, false, 1996, 1999); !bytes.Equal(got, want) {
		t.Fatalf("check body mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	resp = post(t, ts.URL+"/v1/check", checkRequestJSON(t, `,"exact":true,"from_year":1996,"to_year":1996`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("exact status %d", resp.StatusCode)
	}
	got = readBody(t, resp)
	if want := expectedCheckBody(t, true, 1996, 1996); !bytes.Equal(got, want) {
		t.Fatalf("exact check body mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCheckInterrupted: a one-unit budget yields the interrupted result,
// not an HTTP error.
func TestCheckInterrupted(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := post(t, ts.URL+"/v1/check", checkRequestJSON(t, `,"budget":1`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res cli.CheckResult
	if err := json.Unmarshal(readBody(t, resp), &res); err != nil {
		t.Fatal(err)
	}
	if res.Interrupted == nil || res.Interrupted.Reason != "budget" {
		t.Fatalf("interrupted = %+v", res.Interrupted)
	}
}

// sessionSpec is a two-variable complex type: b within [0,2] hours of a.
const sessionSpec = `{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}}}`

func createSession(t *testing.T, baseURL, body string) SessionCreateResponse {
	t.Helper()
	resp := post(t, baseURL+"/v1/tag/sessions", []byte(body))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var cr SessionCreateResponse
	if err := json.Unmarshal(readBody(t, resp), &cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func eventsBody(items ...EventItem) []byte {
	b, _ := json.Marshal(EventsRequest{Events: items})
	return b
}

// TestSessionLifecycle drives one session to acceptance and closes it.
func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cr := createSession(t, ts.URL, sessionSpec)
	if cr.Automaton.States == 0 {
		t.Fatalf("automaton = %+v", cr.Automaton)
	}

	t0 := event.At(1996, 7, 1, 9, 0, 0)
	resp := post(t, ts.URL+"/v1/tag/sessions/"+cr.ID+"/events",
		eventsBody(EventItem{Time: t0, Type: "x"}, EventItem{Time: t0 + 60, Type: "a"}))
	var st SessionStateResponse
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Stream.Accepted || st.Stream.Events != 2 || st.Rejected != nil {
		t.Fatalf("after first batch: %+v", st.Stream)
	}

	resp = post(t, ts.URL+"/v1/tag/sessions/"+cr.ID+"/events",
		eventsBody(EventItem{Time: t0 + 3600, Type: "b"}))
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Stream.Accepted || st.Stream.AcceptIndex == nil {
		t.Fatalf("no acceptance: %+v", st.Stream)
	}
	if st.Stream.AcceptTime != event.Civil(t0+3600) {
		t.Fatalf("accept time %q", st.Stream.AcceptTime)
	}

	// A poll returns the same view.
	var polled SessionStateResponse
	if err := json.Unmarshal(readBody(t, get(t, ts.URL+"/v1/tag/sessions/"+cr.ID)), &polled); err != nil {
		t.Fatal(err)
	}
	if !polled.Stream.Accepted || polled.Stream.Events != 3 {
		t.Fatalf("poll: %+v", polled.Stream)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tag/sessions/"+cr.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", resp.StatusCode)
	}
	readBody(t, resp)
	resp = get(t, ts.URL+"/v1/tag/sessions/"+cr.ID)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("after delete: status %d", resp.StatusCode)
	}
	readBody(t, resp)
}

// TestSessionOutOfOrderReject: a regressing timestamp is refused without
// being consumed; later events of the batch are not applied.
func TestSessionOutOfOrderReject(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cr := createSession(t, ts.URL, sessionSpec)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	readBody(t, post(t, ts.URL+"/v1/tag/sessions/"+cr.ID+"/events", eventsBody(EventItem{Time: t0, Type: "a"})))
	resp := post(t, ts.URL+"/v1/tag/sessions/"+cr.ID+"/events",
		eventsBody(EventItem{Time: t0 - 60, Type: "b"}, EventItem{Time: t0 + 60, Type: "b"}))
	var st SessionStateResponse
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rejected == nil || st.Rejected.Index != 0 || st.Rejected.Reason != "out-of-order" {
		t.Fatalf("rejected = %+v", st.Rejected)
	}
	if st.Stream.Events != 1 {
		t.Fatalf("events = %d, want 1", st.Stream.Events)
	}
}

// jobRequestJSON builds a mining job request from the cascade fixture.
func jobRequestJSON(t *testing.T, extra string) []byte {
	t.Helper()
	problem := strings.TrimSpace(string(mustReadFile(t, "../../testdata/cascade_problem.json")))
	seq, err := cli.ReadSequence("../../testdata/plant45.txt")
	if err != nil {
		t.Fatal(err)
	}
	items, err := json.Marshal(toItems(seq))
	if err != nil {
		t.Fatal(err)
	}
	return []byte(`{"problem":` + problem + `,"events":` + string(items) + extra + `}`)
}

// expectedMineBody runs the cascade mine uninterrupted through the library
// and the shared encoder — the bytes `miner -json` prints.
func expectedMineBody(t *testing.T) []byte {
	t.Helper()
	sys := granularity.Default()
	f, err := os.Open("../../testdata/cascade_problem.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ps, err := mining.ReadProblemSpec(f)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := cli.ReadSequence("../../testdata/plant45.txt")
	if err != nil {
		t.Fatal(err)
	}
	p, work, opt, err := ps.Build(sys, seq)
	if err != nil {
		t.Fatal(err)
	}
	ds, stats, cp, err := mining.OptimizedCheckpoint(sys, p, work, opt)
	if err != nil || cp != nil {
		t.Fatalf("reference mine: cp=%v err=%v", cp != nil, err)
	}
	res, err := cli.BuildMineResult(sys, p, work, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func pollJob(t *testing.T, baseURL, id string, until func(*JobStatusResponse) bool) *JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var js JobStatusResponse
		if err := json.Unmarshal(readBody(t, get(t, baseURL+"/v1/mining/jobs/"+id)), &js); err != nil {
			t.Fatal(err)
		}
		if until(&js) {
			return &js
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not reach the expected state")
	return nil
}

// TestJobLifecycle: an async mining job completes and its result is the
// shared encoder's bytes.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, ts.URL, created.ID, func(js *JobStatusResponse) bool {
		return js.State == JobDone || js.State == JobFailed
	})
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	var buf bytes.Buffer
	if err := done.Result.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if want := expectedMineBody(t); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("job result mismatch:\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestJobQueueFull: with no workers draining the queue, the bounded job
// queue rejects with 429 and a Retry-After hint.
func TestJobQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	srv.jobs.shutdown()
	idle, err := newJobStore(t.TempDir(), srv.sys, srv.counters, 0, 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.jobs = idle
	t.Cleanup(idle.shutdown)

	resp := post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp.StatusCode)
	}
	readBody(t, resp)
	resp = post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	readBody(t, resp)
}

// TestAdmissionQueueFull deterministically fills the one slot and the
// one-deep queue, then expects 429 with Retry-After on the next request.
func TestAdmissionQueueFull(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.QueueDepth = 1
	})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	srv.holdCheck = func() {
		started <- struct{}{}
		<-release
	}
	body := checkRequestJSON(t, "")

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readBody(t, post(t, ts.URL+"/v1/check", body))
		}()
		if i == 0 {
			<-started // slot taken and held; the next request must queue
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.lim.waiting() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := post(t, ts.URL+"/v1/check", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	readBody(t, resp)

	close(release)
	wg.Wait()
}

// TestDrain: an in-flight check completes during a drain while new
// requests (checks, session creates, job submissions, health probes) get
// 503.
func TestDrain(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.MaxInflight = 2 })
	started := make(chan struct{})
	release := make(chan struct{})
	srv.holdCheck = func() {
		close(started)
		<-release
	}
	body := checkRequestJSON(t, "")

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/check", "application/json", bytes.NewReader(body))
		if err != nil {
			inflight <- result{0, nil}
			return
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		inflight <- result{resp.StatusCode, buf.Bytes()}
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !srv.lim.draining() {
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	for _, probe := range []struct {
		name string
		do   func() *http.Response
	}{
		{"check", func() *http.Response { return post(t, ts.URL+"/v1/check", body) }},
		{"session create", func() *http.Response { return post(t, ts.URL+"/v1/tag/sessions", []byte(sessionSpec)) }},
		{"job submit", func() *http.Response { return post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, "")) }},
		{"healthz", func() *http.Response { return get(t, ts.URL+"/healthz") }},
	} {
		resp := probe.do()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s during drain: status %d", probe.name, resp.StatusCode)
		}
		readBody(t, resp)
	}

	select {
	case <-drained:
		t.Fatal("drain finished while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight check: status %d", got.status)
	}
	if want := expectedCheckBody(t, false, 1996, 1999); !bytes.Equal(got.body, want) {
		t.Fatal("in-flight check body mismatch during drain")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitForJobFileState polls the on-disk job record until it reports the
// wanted state (the in-memory state flips before the persist completes).
func waitForJobFileState(t *testing.T, path, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		data, err := os.ReadFile(path)
		if err == nil && strings.Contains(string(data), `"state": "`+want+`"`) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job record never reached state %q", want)
}

// TestRestartRecovery: abandon a daemon without draining (the crash case),
// then restore from its data dir — the session comes back byte-identical
// and the interrupted mining job resumes to the uninterrupted discovery
// set.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())

	cr := createSession(t, ts1.URL, sessionSpec)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	readBody(t, post(t, ts1.URL+"/v1/tag/sessions/"+cr.ID+"/events",
		eventsBody(EventItem{Time: t0, Type: "a"}, EventItem{Time: t0 + 1800, Type: "x"})))
	sessionBefore := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/"+cr.ID))

	// Budget 250 interrupts the cascade mine mid-scan (steps 1-4 cost
	// ~225 units); the resumed attempt finishes within the same budget.
	resp := post(t, ts1.URL+"/v1/mining/jobs", jobRequestJSON(t, `,"budget":250`))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}
	parked := pollJob(t, ts1.URL, created.ID, func(js *JobStatusResponse) bool {
		return js.State != JobQueued && js.State != JobRunning
	})
	if parked.State != JobInterrupted {
		t.Fatalf("job state %q after budget run (error %q)", parked.State, parked.Error)
	}
	jobFile := filepath.Join(dir, "jobs", created.ID+".json")
	waitForJobFileState(t, jobFile, JobInterrupted)

	// Crash: no drain, no checkpointAll — what's on disk is what survives.
	ts1.Close()

	var final *JobStatusResponse
	var sessionAfter []byte
	for restart := 0; restart < 10 && final == nil; restart++ {
		srv, err := New(Config{DataDir: dir, JobWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		if restart == 0 {
			sessionAfter = readBody(t, get(t, ts.URL+"/v1/tag/sessions/"+cr.ID))
		}
		js := pollJob(t, ts.URL, created.ID, func(js *JobStatusResponse) bool {
			return js.State != JobQueued && js.State != JobRunning
		})
		if js.State == JobDone || js.State == JobFailed {
			final = js
		} else {
			waitForJobFileState(t, jobFile, JobInterrupted)
		}
		ts.Close()
		srv.jobs.shutdown()
	}
	if final == nil {
		t.Fatal("job never finished across restarts")
	}
	if final.State != JobDone {
		t.Fatalf("job failed after restart: %s", final.Error)
	}

	if !bytes.Equal(sessionBefore, sessionAfter) {
		t.Fatalf("restored session differs:\nbefore:\n%s\nafter:\n%s", sessionBefore, sessionAfter)
	}
	// The discovery set must match the uninterrupted run exactly. Stats may
	// differ (the TAG run in flight at the interrupt is re-run on resume),
	// so compare discoveries and tau, not the whole result.
	var want cli.MineResult
	if err := json.Unmarshal(expectedMineBody(t), &want); err != nil {
		t.Fatal(err)
	}
	gotDs, _ := json.Marshal(final.Result.Discoveries)
	wantDs, _ := json.Marshal(want.Discoveries)
	if final.Result.Tau != want.Tau || !bytes.Equal(gotDs, wantDs) {
		t.Fatalf("resumed discovery set differs:\ngot tau=%v %s\nwant tau=%v %s",
			final.Result.Tau, gotDs, want.Tau, wantDs)
	}
}

// TestStressMixed is the acceptance stress: >=64 concurrent mixed requests
// (checks, session feeds, job polls, health, metrics) against a small
// admission window. Every response must be a well-formed success or a
// bounded-queue rejection carrying Retry-After; successful check bodies
// must be byte-identical to the shared encoder output.
func TestStressMixed(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.MaxInflight = 4
		c.QueueDepth = 4
		c.JobWorkers = 2
	})

	var sessions []string
	for i := 0; i < 4; i++ {
		sessions = append(sessions, createSession(t, ts.URL, sessionSpec).ID)
	}
	resp := post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit status %d", resp.StatusCode)
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}

	checkBody := checkRequestJSON(t, "")
	wantCheck := expectedCheckBody(t, false, 1996, 1999)
	t0 := event.At(1996, 7, 1, 9, 0, 0)

	do := func(kind, method, url string, body []byte) (string, int, string, []byte) {
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(url)
		} else {
			resp, err = http.Post(url, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			t.Error(err)
			return kind, 0, "", nil
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return kind, resp.StatusCode, resp.Header.Get("Retry-After"), buf.Bytes()
	}

	type task func(i int) (string, int, string, []byte)
	tasks := make([]task, 0, 80)
	for i := 0; i < 28; i++ {
		tasks = append(tasks, func(i int) (string, int, string, []byte) {
			return do("check", http.MethodPost, ts.URL+"/v1/check", checkBody)
		})
	}
	for i := 0; i < 24; i++ {
		tasks = append(tasks, func(i int) (string, int, string, []byte) {
			id := sessions[i%len(sessions)]
			// Identical timestamps keep concurrent batches in order.
			return do("feed", http.MethodPost, ts.URL+"/v1/tag/sessions/"+id+"/events",
				eventsBody(EventItem{Time: t0, Type: "x"}))
		})
	}
	for i := 0; i < 12; i++ {
		tasks = append(tasks, func(i int) (string, int, string, []byte) {
			return do("poll", http.MethodGet, ts.URL+"/v1/mining/jobs/"+created.ID, nil)
		})
	}
	for i := 0; i < 8; i++ {
		tasks = append(tasks, func(i int) (string, int, string, []byte) {
			path := "/healthz"
			if i%2 == 0 {
				path = "/metrics"
			}
			return do("observe", http.MethodGet, ts.URL+path, nil)
		})
	}
	if len(tasks) < 64 {
		t.Fatalf("only %d tasks", len(tasks))
	}

	type outcome struct {
		kind       string
		status     int
		retryAfter string
		body       []byte
	}
	outcomes := make([]outcome, len(tasks))
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i, tk := range tasks {
		wg.Add(1)
		go func(i int, tk task) {
			defer wg.Done()
			<-start
			k, st, ra, body := tk(i)
			outcomes[i] = outcome{k, st, ra, body}
		}(i, tk)
	}
	close(start)
	wg.Wait()

	rejected := 0
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			if o.kind == "check" && !bytes.Equal(o.body, wantCheck) {
				t.Fatalf("stress check body mismatch:\n%s", o.body)
			}
		case http.StatusTooManyRequests:
			rejected++
			if o.kind == "poll" || o.kind == "observe" {
				t.Fatalf("%s must never be throttled", o.kind)
			}
			if o.retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("%s: unexpected status %d: %s", o.kind, o.status, o.body)
		}
	}
	t.Logf("stress: %d requests, %d rejected with 429", len(outcomes), rejected)

	// The system stays serviceable after the burst.
	resp = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after stress: %d", resp.StatusCode)
	}
	readBody(t, resp)
}

// TestMetricsExposition: /metrics serves the engine counters in Prometheus
// text format plus the server gauges.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, nil)
	readBody(t, post(t, ts.URL+"/v1/check", checkRequestJSON(t, "")))
	body := string(readBody(t, get(t, ts.URL+"/metrics")))
	for _, want := range []string{
		`tempo_counter_total{name="server.requests.check"} 1`,
		"tempod_sessions_active 0",
		"tempod_draining 0",
		"# TYPE tempo_counter_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestHealthz reports live session tallies.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, nil)
	createSession(t, ts.URL, sessionSpec)
	var h HealthResponse
	if err := json.Unmarshal(readBody(t, get(t, ts.URL+"/healthz")), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Sessions != 1 {
		t.Fatalf("healthz = %+v", h)
	}
}

// TestBadRequests: malformed inputs get 4xx, never 5xx or a hang.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, tc := range []struct {
		name, url, body string
		want            int
	}{
		{"not json", "/v1/check", `{{{`, http.StatusBadRequest},
		{"unknown field", "/v1/check", `{"spec":{"edges":[]},"nope":1}`, http.StatusBadRequest},
		{"empty constraints", "/v1/check", `{"spec":{"edges":[{"from":"A","to":"B","constraints":[]}]}}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/check", `{"spec":{"edges":[]}}{"again":true}`, http.StatusBadRequest},
		{"session without assign", "/v1/tag/sessions", `{"spec":{"edges":[{"from":"A","to":"B","constraints":[{"min":0,"max":1,"gran":"day"}]}]}}`, http.StatusBadRequest},
		{"session empty events", "/v1/tag/sessions", `{"spec":{}}`, http.StatusBadRequest},
		{"job without reference", "/v1/mining/jobs", `{"problem":{"structure":{"edges":[{"from":"A","to":"B","constraints":[{"min":0,"max":1,"gran":"day"}]}]},"min_confidence":0.5},"events":[]}`, http.StatusBadRequest},
	} {
		resp := post(t, ts.URL+tc.url, []byte(tc.body))
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
		readBody(t, resp)
	}

	resp := get(t, ts.URL+"/v1/tag/sessions/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing session: %d", resp.StatusCode)
	}
	readBody(t, resp)
	resp = get(t, ts.URL+"/v1/mining/jobs/nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	readBody(t, resp)
}

// TestSessionLogReplayRecovery: with a wide checkpoint stride, feeds land
// only in the event log; a crash (no drain) and restart must replay the
// log tail past the stale checkpoint and reproduce the exact session view.
func TestSessionLogReplayRecovery(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir, CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cr := createSession(t, ts1.URL, sessionSpec)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	for i, typ := range []string{"a", "x", "b"} {
		readBody(t, post(t, ts1.URL+"/v1/tag/sessions/"+cr.ID+"/events",
			eventsBody(EventItem{Time: t0 + int64(i)*60, Type: typ})))
	}
	before := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/"+cr.ID))
	ts1.Close()
	srv1.jobs.shutdown()

	// The on-disk checkpoint must be stale — the events live in the log.
	var rec sessionRecord
	if err := json.Unmarshal(mustReadFile(t, filepath.Join(dir, "sessions", cr.ID+".json")), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Events != 0 {
		t.Fatalf("checkpoint covers %d events; the stride should have deferred it", rec.Events)
	}

	srv2, err := New(Config{DataDir: dir, CheckpointEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.jobs.shutdown()
	after := readBody(t, get(t, ts2.URL+"/v1/tag/sessions/"+cr.ID))
	if !bytes.Equal(before, after) {
		t.Fatalf("replayed session differs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	// The replay must also be checkpointed, so a second restart without the
	// log would still know the event count.
	if err := json.Unmarshal(mustReadFile(t, filepath.Join(dir, "sessions", cr.ID+".json")), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Events != 3 {
		t.Fatalf("post-replay checkpoint covers %d events, want 3", rec.Events)
	}
}

// TestSessionLogDamagedReset: a session whose event log cannot cover its
// checkpoint restores from the checkpoint alone; the unusable log moves to
// <id>.events.damaged and a fresh log takes over.
func TestSessionLogDamagedReset(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cr := createSession(t, ts1.URL, sessionSpec)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	readBody(t, post(t, ts1.URL+"/v1/tag/sessions/"+cr.ID+"/events",
		eventsBody(EventItem{Time: t0, Type: "a"}, EventItem{Time: t0 + 60, Type: "x"})))
	before := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/"+cr.ID))
	ts1.Close()
	srv1.jobs.shutdown()

	// Empty the log: now it holds fewer records than the checkpoint covers.
	// (A missing log is a checkpoint-only record, which is not set aside.)
	logDir := filepath.Join(dir, "sessions", cr.ID+".events")
	if err := os.RemoveAll(logDir); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(logDir, 0o755); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Config{DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.jobs.shutdown()
	after := readBody(t, get(t, ts2.URL+"/v1/tag/sessions/"+cr.ID))
	if !bytes.Equal(before, after) {
		t.Fatalf("checkpoint-only restore differs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if _, err := os.Stat(logDir + ".damaged"); err != nil {
		t.Fatalf("unusable log not set aside: %v", err)
	}
	// The session keeps working on a fresh log.
	resp := post(t, ts2.URL+"/v1/tag/sessions/"+cr.ID+"/events",
		eventsBody(EventItem{Time: t0 + 3600, Type: "b"}))
	var st SessionStateResponse
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Stream.Accepted || st.Stream.Events != 3 {
		t.Fatalf("feed after reset: %+v", st.Stream)
	}
}

// TestJobEventLogLifecycle: a job's input sequence lives in its event log
// (the record omits the inline copy) and the log is removed once the job
// reaches a terminal state with its record already durable.
func TestJobEventLogLifecycle(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{DataDir: dir, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.jobs.shutdown()
	resp := post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}
	done := pollJob(t, ts.URL, created.ID, func(js *JobStatusResponse) bool {
		return js.State == JobDone || js.State == JobFailed
	})
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	var rec jobRecord
	if err := json.Unmarshal(mustReadFile(t, filepath.Join(dir, "jobs", created.ID+".json")), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Version != jobRecordVersion || rec.EventsLogged == 0 || len(rec.Request.Events) != 0 {
		t.Fatalf("record: version=%d events_logged=%d inline=%d", rec.Version, rec.EventsLogged, len(rec.Request.Events))
	}
	logDir := filepath.Join(dir, "jobs", created.ID+".events")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(logDir); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job's event log not removed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckpointOnlyRecordUpgrade: a data dir written with the event log
// switched off holds session records and no logs. The fixture is such a
// record after "a" and "x", next to the view the writing build served. It
// restores to that view with nothing set aside, and the fresh log it
// starts carries a later feed through a crash.
func TestCheckpointOnlyRecordUpgrade(t *testing.T) {
	dir := t.TempDir()
	sessDir := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sessDir, "s000001.json"), mustReadFile(t, "testdata/checkpoint-only/s000001.json"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := func() (*Server, *httptest.Server) {
		srv, err := New(Config{DataDir: dir, CheckpointEvery: 100})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	srv1, ts1 := start()
	view, want := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/s000001")), mustReadFile(t, "testdata/checkpoint-only/s000001.view.json")
	if !bytes.Equal(view, want) {
		t.Fatalf("upgraded session differs:\nwant:\n%s\ngot:\n%s", want, view)
	}
	if _, err := os.Stat(filepath.Join(sessDir, "s000001.events.damaged")); !os.IsNotExist(err) {
		t.Fatalf("upgrade set a log aside: %v", err)
	}
	if got := srv1.counters.Get("server.sessions.log_reset"); got != 0 {
		t.Fatalf("server.sessions.log_reset = %d, want 0", got)
	}
	// Under the stride the feed lands in the log only; then a crash.
	feedSession(t, ts1.URL, "s000001", EventItem{Time: event.At(1996, 7, 1, 10, 0, 0), Type: "b"})
	before := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/s000001"))
	ts1.Close()
	srv1.jobs.shutdown()

	srv2, ts2 := start()
	defer ts2.Close()
	defer srv2.jobs.shutdown()
	if after := readBody(t, get(t, ts2.URL+"/v1/tag/sessions/s000001")); !bytes.Equal(before, after) {
		t.Fatalf("session after the second restart differs:\nbefore:\n%s\nafter:\n%s", before, after)
	}
	if !bytes.Contains(before, []byte(`"events": 3`)) {
		t.Fatalf("the feed after the upgrade was not consumed:\n%s", before)
	}
}

// keptFiles reads the record of id under dir, quarantined or not, and
// every file of its event log, keyed by path.
func keptFiles(t *testing.T, dir, id string) map[string]string {
	t.Helper()
	files := map[string]string{}
	for _, root := range []string{id + ".json", id + ".json.corrupt", id + ".events"} {
		err := filepath.Walk(filepath.Join(dir, root), func(p string, info os.FileInfo, err error) error {
			if err == nil && !info.IsDir() {
				files[p] = string(mustReadFile(t, p))
			}
			return err
		})
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
	}
	return files
}

// TestRestoreQuarantineAndOrphanSweep: a corrupt session record is
// quarantined to .corrupt (daemon still starts), its event log is kept as
// evidence, and an ownerless event-log directory is swept away. The IDs of
// kept logs stay taken, including one quarantined at an earlier start.
func TestRestoreQuarantineAndOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	sessDir := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(sessDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sessDir, "s000007.json"), []byte("torn gib"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sessDir, "s000009.json.corrupt"), []byte("torn gib"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"s000007.events", "s000009.events"} {
		if err := os.MkdirAll(filepath.Join(sessDir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(filepath.Join(sessDir, "s000042.events"), 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.jobs.shutdown()
	if _, err := os.Stat(filepath.Join(sessDir, "s000007.json.corrupt")); err != nil {
		t.Fatalf("corrupt record not quarantined: %v", err)
	}
	for _, d := range []string{"s000007.events", "s000009.events"} {
		if _, err := os.Stat(filepath.Join(sessDir, d)); err != nil {
			t.Fatalf("quarantined session's log swept: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(sessDir, "s000042.events")); !os.IsNotExist(err) {
		t.Fatalf("orphan log dir not swept: %v", err)
	}
	if got := srv.sessions.count(); got != 0 {
		t.Fatalf("restored %d sessions from garbage", got)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if cr := createSession(t, ts.URL, sessionSpec); cr.ID != "s000010" {
		t.Fatalf("new session id %s, want s000010 past the kept logs", cr.ID)
	}
}

// TestRestoreSkippedSessionKeepsID: a session record that no longer
// validates (here its clock was redefined, so the fingerprint is foreign)
// is skipped at restore with its record and event log left on disk. Its ID
// must stay taken — neither the local s%06d scheme nor a router assignment
// may reuse it — so the kept files stay byte-identical, and restoring the
// old definition brings the session back as it was.
func TestRestoreSkippedSessionKeepsID(t *testing.T) {
	dir := t.TempDir()
	const gSpec = `{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"g"}]}],"assign":{"X0":"a","X1":"b"}}}`
	start := func(def string) (*Server, *httptest.Server) {
		srv, err := New(Config{DataDir: dir, Internal: true, Defines: []string{"g=" + def}})
		if err != nil {
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.Handler())
	}
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	feed := func(url, id string) {
		t.Helper()
		resp := post(t, url+"/v1/tag/sessions/"+id+"/events", eventsBody(
			EventItem{Time: t0, Type: "a"}, EventItem{Time: t0 + 60, Type: "x"}, EventItem{Time: t0 + 120, Type: "x"}))
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("feed %s status %d: %s", id, resp.StatusCode, body)
		}
	}

	srv1, ts1 := start("group(hour, 2)")
	old := createSession(t, ts1.URL, gSpec)
	feed(ts1.URL, old.ID)
	oldView := readBody(t, get(t, ts1.URL+"/v1/tag/sessions/"+old.ID))
	// Crash: the record still covers 0 events, the log holds all 3.
	ts1.Close()
	srv1.jobs.shutdown()
	sessDir := filepath.Join(dir, "sessions")
	before := keptFiles(t, sessDir, old.ID)

	srv2, ts2 := start("group(hour, 3)")
	if got := srv2.sessions.count(); got != 0 {
		t.Fatalf("restored %d session(s) under a foreign fingerprint", got)
	}
	fresh := createSession(t, ts2.URL, sessionSpec)
	if fresh.ID == old.ID {
		t.Fatalf("new session reused the skipped session's id %s", old.ID)
	}
	feed(ts2.URL, fresh.ID)
	resp := postJSON(t, ts2.URL+"/v1/tag/sessions", json.RawMessage(sessionSpec),
		map[string]string{AssignIDHeader: old.ID})
	if body := readBody(t, resp); resp.StatusCode != http.StatusUnprocessableEntity || !bytes.Contains(body, []byte("already exists")) {
		t.Fatalf("assigned create over a skipped record: status %d: %s", resp.StatusCode, body)
	}
	ts2.Close()
	srv2.jobs.shutdown()
	if after := keptFiles(t, sessDir, old.ID); !maps.Equal(before, after) {
		t.Fatalf("skipped session's files changed:\nbefore: %v\nafter: %v", before, after)
	}

	srv3, ts3 := start("group(hour, 2)")
	defer srv3.jobs.shutdown()
	defer ts3.Close()
	if got := srv3.sessions.count(); got != 2 {
		t.Fatalf("restored %d session(s), want 2", got)
	}
	if view := readBody(t, get(t, ts3.URL+"/v1/tag/sessions/"+old.ID)); !bytes.Equal(view, oldView) {
		t.Fatalf("skipped session differs once its definition is back:\nbefore:\n%s\nafter:\n%s", oldView, view)
	}
}

// TestJobPersistSerialized: the attempt that finishes a session-attached
// job and the next attempt a refresh starts can persist the job at the
// same time, through the same <id>.json.tmp. Persists of one job are
// serialized, so none fails, and the record on disk ends at the job's
// latest state.
func TestJobPersistSerialized(t *testing.T) {
	srv, _ := newTestServer(t, nil)
	j := &job{id: "j000001", state: JobDone}
	const writers, rounds = 4, 25
	errs := make(chan error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				j.mu.Lock()
				j.errMsg = fmt.Sprintf("writer %d round %d", w, i)
				j.mu.Unlock()
				if err := srv.jobs.persist(j); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent persist: %v", err)
	}
	var rec jobRecord
	if err := json.Unmarshal(mustReadFile(t, srv.jobs.records.path(j.id)), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Error != j.errMsg {
		t.Fatalf("record ends at %q, the job at %q", rec.Error, j.errMsg)
	}
}

// skipJobRecord leaves a queued job's record and event log under
// dir/jobs, the record's state rewritten to one restore does not know,
// and returns the job's ID.
func skipJobRecord(t *testing.T, dir string) string {
	t.Helper()
	jobsDir := filepath.Join(dir, "jobs")
	var req JobCreateRequest
	if err := json.Unmarshal(jobRequestJSON(t, ""), &req); err != nil {
		t.Fatal(err)
	}
	// A store with no workers leaves the job queued, its record and event
	// log on disk.
	idle, err := newJobStore(jobsDir, granularity.Default(), engine.NewCounters(), 0, 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	j, err := idle.submit(&req, "")
	if err != nil {
		t.Fatal(err)
	}
	idle.shutdown()
	recPath := filepath.Join(jobsDir, j.id+".json")
	data := mustReadFile(t, recPath)
	if !bytes.Contains(data, []byte(`"state": "queued"`)) {
		t.Fatalf("record of the queued job:\n%s", data)
	}
	if err := os.WriteFile(recPath, bytes.Replace(data, []byte(`"state": "queued"`), []byte(`"state": "paused"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if files := keptFiles(t, jobsDir, j.id); len(files) < 2 {
		t.Fatalf("expected the record and a non-empty event log, found %d file(s)", len(files))
	}
	return j.id
}

// TestRestoreSkippedJobKeepsID: a job record that restore skips (here one
// with an unknown state) keeps its ID out of reuse. The next local job
// gets a fresh ID, a router-assigned submit under the skipped ID is
// refused, and the skipped record and its event log stay byte-identical.
func TestRestoreSkippedJobKeepsID(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	oldID := skipJobRecord(t, dir)
	before := keptFiles(t, jobsDir, oldID)

	srv, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.jobs.shutdown()
	defer ts.Close()
	if _, ok := srv.jobs.get(oldID); ok {
		t.Fatalf("restored job %s with an unknown state", oldID)
	}
	resp := post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	var st JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, %v", resp.StatusCode, err)
	}
	if st.ID == oldID {
		t.Fatalf("new job reused the skipped job's id %s", oldID)
	}
	resp = postJSON(t, ts.URL+"/v1/mining/jobs", json.RawMessage(jobRequestJSON(t, "")),
		map[string]string{AssignIDHeader: oldID})
	if body := readBody(t, resp); resp.StatusCode == http.StatusAccepted || !bytes.Contains(body, []byte("already exists")) {
		t.Fatalf("assigned submit over a skipped record: status %d: %s", resp.StatusCode, body)
	}
	pollJob(t, ts.URL, st.ID, func(js *JobStatusResponse) bool { return js.State == JobDone })
	if after := keptFiles(t, jobsDir, oldID); !maps.Equal(before, after) {
		t.Fatalf("skipped job's files changed:\nbefore: %v\nafter: %v", before, after)
	}
}

// TestJobImportRefusedOverSkippedRecord: a migration import claims its ID
// like an assigned submit, so an import under the ID of a job record that
// restore skipped is refused and the record and its event log stay
// byte-identical.
func TestJobImportRefusedOverSkippedRecord(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	oldID := skipJobRecord(t, dir)
	before := keptFiles(t, jobsDir, oldID)

	srv, err := New(Config{DataDir: dir, Internal: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer srv.jobs.shutdown()
	defer ts.Close()
	var req JobCreateRequest
	if err := json.Unmarshal(jobRequestJSON(t, ""), &req); err != nil {
		t.Fatal(err)
	}
	rec, err := json.Marshal(jobRecord{Version: jobRecordVersion, ID: oldID, Request: req, State: JobQueued})
	if err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/internal/jobs/import", JobBundle{ID: oldID, Record: rec}, nil)
	if body := readBody(t, resp); resp.StatusCode != http.StatusConflict || !bytes.Contains(body, []byte("already exists")) {
		t.Fatalf("import over a skipped record: status %d: %s", resp.StatusCode, body)
	}
	if after := keptFiles(t, jobsDir, oldID); !maps.Equal(before, after) {
		t.Fatalf("skipped job's files changed:\nbefore: %v\nafter: %v", before, after)
	}
}

// TestSessionImportRefusedOverQuarantinedRecord: a session record that
// does not decode is quarantined with its event log kept as evidence. A
// migration import under its ID is refused like an assigned create, and
// the log stays.
func TestSessionImportRefusedOverQuarantinedRecord(t *testing.T) {
	dir := t.TempDir()
	sessDir := filepath.Join(dir, "sessions")
	if err := os.MkdirAll(filepath.Join(sessDir, "s000007.events"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string]string{"s000007.json": "torn gib", "s000007.events/evidence": "kept"} {
		if err := os.WriteFile(filepath.Join(sessDir, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newWorkerServer(t, func(c *Config) { c.DataDir = dir })
	before := keptFiles(t, sessDir, "s000007")
	if len(before) != 2 {
		t.Fatalf("quarantine kept %v", before)
	}

	// The bundle of a live session under the same ID on another worker.
	_, tsB := newWorkerServer(t, nil)
	resp := postJSON(t, tsB.URL+"/v1/tag/sessions", json.RawMessage(sessionSpec), map[string]string{AssignIDHeader: "s000007"})
	if body := readBody(t, resp); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create on the exporter: status %d: %s", resp.StatusCode, body)
	}
	feedSession(t, tsB.URL, "s000007", EventItem{Time: event.At(1996, 7, 1, 9, 0, 0), Type: "a"})
	resp = postJSON(t, tsB.URL+"/internal/sessions/s000007/export", nil, nil)
	var bundle SessionBundle
	if err := json.Unmarshal(readBody(t, resp), &bundle); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: status %d, %v", resp.StatusCode, err)
	}

	resp = postJSON(t, ts.URL+"/internal/sessions/import", &bundle, nil)
	if body := readBody(t, resp); resp.StatusCode != http.StatusConflict || !bytes.Contains(body, []byte("already exists")) {
		t.Fatalf("import over a quarantined record: status %d: %s", resp.StatusCode, body)
	}
	if after := keptFiles(t, sessDir, "s000007"); !maps.Equal(before, after) {
		t.Fatalf("quarantined session's files changed:\nbefore: %v\nafter: %v", before, after)
	}
}

// TestRefreshIsDurable: an acknowledged refresh is on disk when it
// returns. A done session-attached job is restored into a store with no
// workers and refreshed; a fresh store over the same directory (the daemon
// died before the attempt ran) re-queues it instead of keeping the old
// result.
func TestRefreshIsDurable(t *testing.T) {
	dir := t.TempDir()
	open := func() *jobStore {
		t.Helper()
		st, err := newJobStore(dir, granularity.Default(), engine.NewCounters(), 0, 4, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.restore(log.New(io.Discard, "", 0)); err != nil {
			t.Fatal(err)
		}
		return st
	}
	var req JobCreateRequest
	if err := json.Unmarshal([]byte(`{"problem":`+sessionJobProblem+`,"session_id":"s000001"}`), &req); err != nil {
		t.Fatal(err)
	}
	first := open()
	if err := first.persist(&job{id: "j000001", req: req, state: JobDone}); err != nil {
		t.Fatal(err)
	}
	first.shutdown()

	second := open()
	if _, err := second.refresh("j000001"); err != nil {
		t.Fatal(err)
	}
	second.shutdown()
	third := open()
	defer third.shutdown()
	if got := third.counters.Get("server.jobs.requeued"); got != 1 {
		t.Fatalf("server.jobs.requeued = %d after an acknowledged refresh, want 1", got)
	}
}
