// Mining-layer benchmarks: incremental mining over a live stream versus
// batch re-mining from scratch. scripts/benchgate gates the no-rescan
// property: appending one event to a 100k-event stream and snapshotting
// must beat a full batch re-mine by >=20x, or the incremental miner has
// silently degraded into a rescan.
package tempo

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
)

// benchIncrementalEvents is the stream size the no-rescan gate is measured
// at: large enough that an accidental O(n) rescan is unmissable.
const benchIncrementalEvents = 100_000

// benchIncrementalProblem is a two-variable chase — "b" within [0,2] hours
// of a reference "a" — whose bounded window lets the incremental miner
// close references and fold them into counters as the stream advances.
func benchIncrementalProblem() mining.Problem {
	s := core.NewStructure()
	s.MustConstrain("X0", "X1", core.MustTCG(0, 2, "hour"))
	return mining.Problem{
		Structure:     s,
		MinConfidence: 0.5,
		Reference:     "a",
		Candidates: map[core.Variable][]event.Type{
			"X0": {"a"},
			"X1": {"b"},
		},
	}
}

// benchIncrementalEvent is the i-th stream event: an a/b pair every other
// minute with a decoy between, strictly increasing half a minute apart.
func benchIncrementalEvent(i int) event.Event {
	types := [...]event.Type{"a", "b", "x", "b"}
	return event.Event{Time: event.At(1996, 1, 1, 0, 0, 0) + int64(i)*30, Type: types[i%4]}
}

// benchIncrementalSeq builds the n-event prefix of the stream.
func benchIncrementalSeq(n int) event.Sequence {
	seq := make(event.Sequence, 0, n)
	for i := 0; i < n; i++ {
		seq = append(seq, benchIncrementalEvent(i))
	}
	return seq
}

// BenchmarkIncrementalAppend100k: one Append+Snapshot per op against a
// miner that has already consumed 100k events — the steady-state cost of
// keeping a session-attached mining job current. The op must not depend on
// the 100k history (closed references live in O(1) counters); the
// no-rescan gate compares it against BenchmarkBatchRemine100k.
func BenchmarkIncrementalAppend100k(b *testing.B) {
	b.ReportAllocs()
	sys := granularity.Default()
	p := benchIncrementalProblem()
	inc, err := mining.NewIncremental(sys, p, mining.PipelineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchIncrementalEvents; i++ {
		if err := inc.Append(benchIncrementalEvent(i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := inc.Snapshot(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := inc.Append(benchIncrementalEvent(benchIncrementalEvents + i)); err != nil {
			b.Fatal(err)
		}
		if _, _, err := inc.Snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchRemine100k: what a refresh would cost without incremental
// state — a full Optimized run over the same 100k events, per op.
func BenchmarkBatchRemine100k(b *testing.B) {
	b.ReportAllocs()
	sys := granularity.Default()
	p := benchIncrementalProblem()
	seq := benchIncrementalSeq(benchIncrementalEvents + 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(sys, p, seq, mining.PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
