// Store-layer benchmarks: the append-only event store's write path with
// and without fsync-per-append, and recovery's full-scan rebuild when the
// manifest is missing. scripts/benchgate gates both appends' allocs/op.
package tempo

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/event"
	"repro/internal/store"
)

// benchStoreEvent returns the i-th event of the benchmark stream: strictly
// increasing timestamps a minute apart, three rotating types.
func benchStoreEvent(i int) event.Event {
	types := [...]event.Type{"a", "x", "b"}
	return event.Event{Time: event.At(1996, 1, 1, 0, 0, 0) + int64(i)*60, Type: types[i%3]}
}

// BenchmarkStoreAppendNoSync: one Append per op with a batched fsync
// stride — the throughput ceiling of the write path (encode + buffered
// write + tick index bookkeeping).
func BenchmarkStoreAppendNoSync(b *testing.B) {
	b.ReportAllocs()
	s, _, err := store.Open(filepath.Join(b.TempDir(), "log"), store.Options{SyncEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(benchStoreEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreAppendSynced: one Append per op at the durability setting
// tempod's session logs run with (fsync before every acknowledgement) —
// the cost of crash safety next to BenchmarkStoreAppendNoSync.
func BenchmarkStoreAppendSynced(b *testing.B) {
	b.ReportAllocs()
	s, _, err := store.Open(filepath.Join(b.TempDir(), "log"), store.Options{SyncEvery: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Append(benchStoreEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStoreRecoverRecords is the log size BenchmarkStoreRecover rebuilds.
const benchStoreRecoverRecords = 10000

// BenchmarkStoreRecover: Open over a multi-segment log whose manifest was
// deleted, forcing the full record-by-record scan — the worst-case restart
// path a crashed daemon pays.
func BenchmarkStoreRecover(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "log")
	s, _, err := store.Open(dir, store.Options{SegmentMaxBytes: 64 << 10, SyncEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchStoreRecoverRecords; i++ {
		if _, err := s.Append(benchStoreEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(filepath.Join(dir, "manifest.json")); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		b.StartTimer()
		s, rec, err := store.Open(dir, store.Options{SegmentMaxBytes: 64 << 10})
		if err != nil {
			b.Fatal(err)
		}
		if rec.Records != benchStoreRecoverRecords || !rec.ManifestRebuilt {
			b.Fatalf("recovered %d records (manifest rebuilt %v), want %d from a full scan",
				rec.Records, rec.ManifestRebuilt, benchStoreRecoverRecords)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
