// Cluster-tier benchmarks: the router's two costs. Router proxy overhead on
// /v1/check (gated at <=2x a direct worker call — both sides pay one HTTP
// round trip, the router pays two) and a 10k-event session migration
// (gated on replayed/op: the import must restore from the strided
// checkpoint plus a tail replay shorter than the stride, never a full log
// rescan). scripts/benchgate checks both gates.
package tempo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cluster"
	"repro/internal/event"
	"repro/internal/server"
)

const (
	// benchMigrationEvents is the migrated session's stream length: large
	// enough that an accidental full-log replay on import is unmissable
	// next to the <=7-event tail the strided checkpoint leaves. Off the
	// stride by 3 so the first import has a non-empty tail to replay;
	// after that the export's seal checkpoint leaves nothing behind it.
	benchMigrationEvents = 10_003
	// benchMigrationStride is the worker's CheckpointEvery; replayed/op
	// must stay below it.
	benchMigrationStride = 8
)

var benchCheckBody = []byte(`{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}]}}`)

// benchWorker boots one in-process worker tempod over httptest.
func benchWorker(b *testing.B) *httptest.Server {
	b.Helper()
	srv, err := server.New(server.Config{
		DataDir: b.TempDir(), Internal: true,
		CheckpointEvery: benchMigrationStride, JobWorkers: 1,
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	return ts
}

func benchPost(b *testing.B, url string, body []byte) []byte {
	b.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		b.Fatalf("POST %s: %d %s", url, resp.StatusCode, data)
	}
	return data
}

// BenchmarkStandaloneCheck: one /v1/check against a worker directly — the
// denominator of the proxy-overhead gate.
func BenchmarkStandaloneCheck(b *testing.B) {
	ts := benchWorker(b)
	benchPost(b, ts.URL+"/v1/check", benchCheckBody)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/check", benchCheckBody)
	}
}

// BenchmarkRouterProxyCheck: the same /v1/check through a router fronting
// one worker — an extra hop, epoch stamping and failover bookkeeping.
func BenchmarkRouterProxyCheck(b *testing.B) {
	ts := benchWorker(b)
	rt, err := cluster.New(cluster.Config{
		Workers: []cluster.WorkerSpec{{Name: "w1", URL: ts.URL}},
		Logger:  log.New(io.Discard, "", 0),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer rt.Close()
	rts := httptest.NewServer(rt.Handler())
	b.Cleanup(rts.Close)
	benchPost(b, rts.URL+"/v1/check", benchCheckBody)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, rts.URL+"/v1/check", benchCheckBody)
	}
}

// BenchmarkSessionMigration10k: one full rebalance-by-checkpoint handover
// of a 10k-event session per op — export (seal + bundle the on-disk
// record and log), import on the peer (land, fingerprint-validate,
// restore from the strided checkpoint, replay the tail), forget on the
// donor. Ops alternate direction so every op starts from steady state.
// The reported replayed/op is the import's log-tail replay length; the
// no-rescan gate requires it under the checkpoint stride — a full rescan
// would report ~10000, while the strided checkpoint (refreshed by the
// export seal) keeps it at the 3-event initial tail amortized toward zero.
func BenchmarkSessionMigration10k(b *testing.B) {
	workers := [2]*httptest.Server{benchWorker(b), benchWorker(b)}

	spec := []byte(`{"spec":{"edges":[{"from":"X0","to":"X1","constraints":[{"min":0,"max":2,"gran":"hour"}]}],"assign":{"X0":"a","X1":"b"}}}`)
	var cr server.SessionCreateResponse
	if err := json.Unmarshal(benchPost(b, workers[0].URL+"/v1/tag/sessions", spec), &cr); err != nil {
		b.Fatal(err)
	}
	t0 := event.At(1996, 1, 1, 0, 0, 0)
	types := [...]string{"a", "b", "x", "b"}
	const chunk = 1000
	for at := 0; at < benchMigrationEvents; at += chunk {
		end := min(at+chunk, benchMigrationEvents)
		var sb bytes.Buffer
		sb.WriteString(`{"events":[`)
		for i := at; i < end; i++ {
			if i > at {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"time":%d,"type":"%s"}`, t0+int64(i)*30, types[i%len(types)])
		}
		sb.WriteString(`]}`)
		benchPost(b, workers[0].URL+"/v1/tag/sessions/"+cr.ID+"/events", sb.Bytes())
	}

	src, dst := 0, 1
	totalReplayed := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle := benchPost(b, workers[src].URL+"/internal/sessions/"+cr.ID+"/export", nil)
		var imp server.ImportResponse
		if err := json.Unmarshal(benchPost(b, workers[dst].URL+"/internal/sessions/import", bundle), &imp); err != nil {
			b.Fatal(err)
		}
		totalReplayed += imp.Replayed
		benchPost(b, workers[src].URL+"/internal/sessions/"+cr.ID+"/forget", nil)
		src, dst = dst, src
	}
	b.StopTimer()
	b.ReportMetric(float64(totalReplayed)/float64(b.N), "replayed/op")
}
