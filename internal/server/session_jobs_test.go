package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mining"
)

// sessionJobProblem mines the same shape the sessionSpec tracks: X1 ("b")
// within [0,2] hours of X0 ("a").
const sessionJobProblem = `{"structure":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}},"min_confidence":0.4,"reference":"a"}`

// feedSession posts one batch of events to a session and fails on any
// non-200 or rejected event.
func feedSession(t *testing.T, baseURL, id string, items ...EventItem) {
	t.Helper()
	resp := post(t, baseURL+"/v1/tag/sessions/"+id+"/events", eventsBody(items...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("feed status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var st SessionStateResponse
	if err := json.Unmarshal(readBody(t, resp), &st); err != nil {
		t.Fatal(err)
	}
	if st.Rejected != nil {
		t.Fatalf("feed rejected: %+v", st.Rejected)
	}
}

// submitSessionJob creates a job attached to a session and returns its ID.
func submitSessionJob(t *testing.T, baseURL, sessionID string) string {
	t.Helper()
	body := []byte(`{"problem":` + sessionJobProblem + `,"session_id":"` + sessionID + `"}`)
	resp := post(t, baseURL+"/v1/mining/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}
	return created.ID
}

// pollSessionJobDone waits until the job is done and its result covers
// exactly `events` sequence events (a refresh flips the job back through
// queued/running, so "done" alone could still be the previous result).
func pollSessionJobDone(t *testing.T, baseURL, id string, events int) *JobStatusResponse {
	t.Helper()
	done := pollJob(t, baseURL, id, func(js *JobStatusResponse) bool {
		if js.State == JobFailed {
			return true
		}
		return js.State == JobDone && js.Result != nil && js.Result.Stats != nil && js.Result.Stats.Events == events
	})
	if done.State != JobDone {
		t.Fatalf("job failed: %s", done.Error)
	}
	return done
}

// expectedSessionJobBody batch-mines seq with the session job's problem and
// encodes it exactly as the job does, with TagRuns zeroed: the incremental
// miner's TAG-run accounting legitimately differs from a batch re-mine and
// is the one stat the equivalence proof excludes.
func expectedSessionJobBody(t *testing.T, srv *Server, seq event.Sequence) []byte {
	t.Helper()
	ps, err := mining.ReadProblemSpec(strings.NewReader(sessionJobProblem))
	if err != nil {
		t.Fatal(err)
	}
	p, _, opt, err := ps.Build(srv.sys, nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, stats, err := mining.Optimized(srv.sys, p, seq, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cli.BuildMineResult(srv.sys, p, nil, ds, stats, p.MinConfidence, 0, engine.ExecCompiled)
	if err != nil {
		t.Fatal(err)
	}
	res.Stats.TagRuns = 0
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeSessionJobResult canonicalizes a job result for comparison against
// expectedSessionJobBody (TagRuns zeroed on both sides).
func encodeSessionJobResult(t *testing.T, js *JobStatusResponse) []byte {
	t.Helper()
	js.Result.Stats.TagRuns = 0
	var buf bytes.Buffer
	if err := js.Result.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSessionJobIncremental: a mining job attached to a live session mines
// the session's event log, matches a batch mine of the same events, and a
// refresh after more feeds re-mines only the appended suffix (proven by the
// resume counter) while still matching batch.
func TestSessionJobIncremental(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	cr := createSession(t, ts.URL, sessionSpec)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	seq := event.Sequence{
		{Time: t0, Type: "a"},
		{Time: t0 + 1800, Type: "b"},
		{Time: t0 + 7200, Type: "a"},
	}
	feedSession(t, ts.URL, cr.ID,
		EventItem{Time: seq[0].Time, Type: "a"},
		EventItem{Time: seq[1].Time, Type: "b"},
		EventItem{Time: seq[2].Time, Type: "a"})

	id := submitSessionJob(t, ts.URL, cr.ID)
	done := pollSessionJobDone(t, ts.URL, id, len(seq))
	if got, want := encodeSessionJobResult(t, done), expectedSessionJobBody(t, srv, seq); !bytes.Equal(got, want) {
		t.Fatalf("initial result mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Grow the session past acceptance (feeds keep landing in the log) and
	// refresh: the second attempt must resume from the consolidation
	// checkpoint, not restart from scratch.
	seq = append(seq,
		event.Event{Time: t0 + 9000, Type: "b"},
		event.Event{Time: t0 + 90000, Type: "a"},
		event.Event{Time: t0 + 91800, Type: "b"})
	feedSession(t, ts.URL, cr.ID,
		EventItem{Time: seq[3].Time, Type: "b"},
		EventItem{Time: seq[4].Time, Type: "a"},
		EventItem{Time: seq[5].Time, Type: "b"})

	resp := post(t, ts.URL+"/v1/mining/jobs/"+id+"/refresh", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refresh status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
	done = pollSessionJobDone(t, ts.URL, id, len(seq))
	if got, want := encodeSessionJobResult(t, done), expectedSessionJobBody(t, srv, seq); !bytes.Equal(got, want) {
		t.Fatalf("refreshed result mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := srv.counters.Get("server.jobs.incremental_resumed"); got != 1 {
		t.Fatalf("incremental_resumed = %d, want 1 (refresh must resume, not restart)", got)
	}
	if got := srv.counters.Get("server.jobs.incremental_restarted"); got != 0 {
		t.Fatalf("incremental_restarted = %d, want 0", got)
	}

	// A refresh with nothing appended is a cheap no-op attempt that still
	// reports the same result.
	resp = post(t, ts.URL+"/v1/mining/jobs/"+id+"/refresh", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("idle refresh status %d", resp.StatusCode)
	}
	readBody(t, resp)
	done = pollSessionJobDone(t, ts.URL, id, len(seq))
	if got, want := encodeSessionJobResult(t, done), expectedSessionJobBody(t, srv, seq); !bytes.Equal(got, want) {
		t.Fatalf("idle refresh result mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSessionJobRestartResume: the consolidation checkpoint rides in the
// persisted job record, so a restarted daemon refreshes incrementally —
// resuming from the high-water mark instead of re-mining the whole log.
func TestSessionJobRestartResume(t *testing.T) {
	dir := t.TempDir()
	srv1, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	cr := createSession(t, ts1.URL, sessionSpec)
	t0 := event.At(1996, 7, 1, 9, 0, 0)
	seq := event.Sequence{
		{Time: t0, Type: "a"},
		{Time: t0 + 1800, Type: "b"},
	}
	feedSession(t, ts1.URL, cr.ID,
		EventItem{Time: seq[0].Time, Type: "a"},
		EventItem{Time: seq[1].Time, Type: "b"})
	id := submitSessionJob(t, ts1.URL, cr.ID)
	pollSessionJobDone(t, ts1.URL, id, len(seq))
	ts1.Close()
	srv1.jobs.shutdown()

	srv2, err := New(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	defer srv2.jobs.shutdown()

	// The restored job still serves its result without re-running.
	done := pollSessionJobDone(t, ts2.URL, id, len(seq))
	if got, want := encodeSessionJobResult(t, done), expectedSessionJobBody(t, srv2, seq); !bytes.Equal(got, want) {
		t.Fatalf("restored result mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}

	seq = append(seq, event.Event{Time: t0 + 86400, Type: "a"}, event.Event{Time: t0 + 88200, Type: "b"})
	feedSession(t, ts2.URL, cr.ID,
		EventItem{Time: seq[2].Time, Type: "a"},
		EventItem{Time: seq[3].Time, Type: "b"})
	resp := post(t, ts2.URL+"/v1/mining/jobs/"+id+"/refresh", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refresh status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	readBody(t, resp)
	done = pollSessionJobDone(t, ts2.URL, id, len(seq))
	if got, want := encodeSessionJobResult(t, done), expectedSessionJobBody(t, srv2, seq); !bytes.Equal(got, want) {
		t.Fatalf("post-restart refresh mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got := srv2.counters.Get("server.jobs.incremental_resumed"); got != 1 {
		t.Fatalf("incremental_resumed = %d, want 1 (restart must resume from the persisted checkpoint)", got)
	}
	if got := srv2.counters.Get("server.jobs.incremental_restarted"); got != 0 {
		t.Fatalf("incremental_restarted = %d, want 0", got)
	}
}

// TestSessionJobValidation covers the submit- and refresh-time rejections
// of the session-attached job surface.
func TestSessionJobValidation(t *testing.T) {
	_, ts := newTestServer(t, nil)
	cr := createSession(t, ts.URL, sessionSpec)

	expectStatus := func(path string, body []byte, want int) {
		t.Helper()
		resp := post(t, ts.URL+path, body)
		if resp.StatusCode != want {
			t.Fatalf("POST %s status %d, want %d: %s", path, resp.StatusCode, want, readBody(t, resp))
		}
		readBody(t, resp)
	}

	// session_id is mutually exclusive with an inline sequence and explain.
	expectStatus("/v1/mining/jobs",
		[]byte(`{"problem":`+sessionJobProblem+`,"session_id":"`+cr.ID+`","events":[{"time":1,"type":"a"}]}`),
		http.StatusBadRequest)
	expectStatus("/v1/mining/jobs",
		[]byte(`{"problem":`+sessionJobProblem+`,"session_id":"`+cr.ID+`","explain":1}`),
		http.StatusBadRequest)
	// Granule-anchored problems synthesize pseudo-references from the full
	// sequence and cannot stream.
	anchored := `{"structure":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X1":"b"}},"min_confidence":0.4,"granule_anchor":"day"}`
	expectStatus("/v1/mining/jobs",
		[]byte(`{"problem":`+anchored+`,"session_id":"`+cr.ID+`"}`),
		http.StatusBadRequest)
	// Unknown sessions are rejected at submit time.
	expectStatus("/v1/mining/jobs",
		[]byte(`{"problem":`+sessionJobProblem+`,"session_id":"no-such-session"}`),
		http.StatusNotFound)

	// Refresh: unknown job is 404; a batch job cannot be refreshed.
	resp := post(t, ts.URL+"/v1/mining/jobs/j999999/refresh", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("refresh unknown job status %d", resp.StatusCode)
	}
	readBody(t, resp)

	resp = post(t, ts.URL+"/v1/mining/jobs", jobRequestJSON(t, ""))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit status %d", resp.StatusCode)
	}
	var created JobStatusResponse
	if err := json.Unmarshal(readBody(t, resp), &created); err != nil {
		t.Fatal(err)
	}
	pollJob(t, ts.URL, created.ID, func(js *JobStatusResponse) bool {
		return js.State == JobDone || js.State == JobFailed
	})
	expectStatus("/v1/mining/jobs/"+created.ID+"/refresh", nil, http.StatusConflict)

	// A session that goes away under a done job fails the next refresh
	// attempt instead of serving stale results.
	seqT0 := event.At(1996, 7, 2, 9, 0, 0)
	cr2 := createSession(t, ts.URL, sessionSpec)
	feedSession(t, ts.URL, cr2.ID, EventItem{Time: seqT0, Type: "a"}, EventItem{Time: seqT0 + 60, Type: "b"})
	id := submitSessionJob(t, ts.URL, cr2.ID)
	pollSessionJobDone(t, ts.URL, id, 2)
	delResp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/tag/sessions/"+cr2.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := http.DefaultClient.Do(delResp)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, dr)
	expectStatus("/v1/mining/jobs/"+id+"/refresh", nil, http.StatusAccepted)
	failed := pollJob(t, ts.URL, id, func(js *JobStatusResponse) bool {
		return js.State == JobFailed
	})
	if !strings.Contains(failed.Error, "session") {
		t.Fatalf("refresh after session close failed with %q, want a session error", failed.Error)
	}
}
