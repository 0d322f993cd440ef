package mining

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// incrementalProblem varies the threshold by seed so screening sometimes
// bites and sometimes does not.
func incrementalProblem(seed int64) Problem {
	return Problem{
		Structure:     plantStructure(),
		MinConfidence: []float64{0.3, 0.5, 0.7}[seed%3],
		Reference:     "A",
	}
}

// diffIncremental compares one prefix's incremental snapshot against a batch
// run. TagRuns is excluded: running fewer automata is the incremental
// miner's purpose; everything else must be identical.
func diffIncremental(ids []Discovery, ist Stats, ierr error, bds []Discovery, bst Stats, berr error) string {
	if (ierr == nil) != (berr == nil) {
		return fmt.Sprintf("incremental err %v, batch err %v", ierr, berr)
	}
	if ierr != nil {
		if ierr.Error() != berr.Error() {
			return fmt.Sprintf("incremental err %q, batch err %q", ierr, berr)
		}
		return ""
	}
	ist.TagRuns, bst.TagRuns = 0, 0
	if ist != bst {
		return fmt.Sprintf("stats %+v, batch %+v", ist, bst)
	}
	if len(ids) != len(bds) {
		return fmt.Sprintf("%d discoveries, batch %d", len(ids), len(bds))
	}
	for i := range ids {
		if AssignKey(ids[i].Assign) != AssignKey(bds[i].Assign) ||
			ids[i].Matches != bds[i].Matches || ids[i].Frequency != bds[i].Frequency {
			return fmt.Sprintf("discovery %d = %v (%d, %v), batch %v (%d, %v)", i,
				AssignKey(ids[i].Assign), ids[i].Matches, ids[i].Frequency,
				AssignKey(bds[i].Assign), bds[i].Matches, bds[i].Frequency)
		}
	}
	return ""
}

// TestIncrementalPrefixEquivalence is the core property: for seeds 0..20,
// EVERY prefix of the generated stream yields byte-identical discoveries and
// stats from the incremental miner and a from-scratch Optimized run, across
// batch worker counts {1, 2, 8}. Periodically the miner is also
// checkpointed, restored and swapped in, so the consolidation protocol is
// inside the property too.
func TestIncrementalPrefixEquivalence(t *testing.T) {
	for seed := int64(0); seed <= 20; seed++ {
		seq := plantWorkload(seed, 6, 0.6)
		p := incrementalProblem(seed)
		opt := PipelineOptions{}
		inc, err := NewIncremental(sys, p, opt)
		if err != nil {
			t.Fatalf("seed %d: NewIncremental: %v", seed, err)
		}
		for i, e := range seq {
			if err := inc.Append(e); err != nil {
				t.Fatalf("seed %d: append %d: %v", seed, i, err)
			}
			ids, ist, ierr := inc.Snapshot()
			for _, workers := range []int{1, 2, 8} {
				bds, bst, berr := Optimized(sys, p, seq[:i+1], PipelineOptions{Workers: workers})
				if d := diffIncremental(ids, ist, ierr, bds, bst, berr); d != "" {
					t.Fatalf("seed %d prefix %d workers %d: %s", seed, i+1, workers, d)
				}
			}
			// Consolidate, restore through the wire format, replay the
			// retained frontier and continue on the restored miner.
			if i%7 == 3 {
				cp, err := inc.Checkpoint()
				if err != nil {
					t.Fatalf("seed %d prefix %d: checkpoint: %v", seed, i+1, err)
				}
				var buf bytes.Buffer
				if err := cp.Encode(&buf); err != nil {
					t.Fatal(err)
				}
				cp2, err := DecodeCheckpoint(&buf)
				if err != nil {
					t.Fatalf("seed %d prefix %d: decode: %v", seed, i+1, err)
				}
				inc2, err := RestoreIncremental(sys, p, opt, cp2, int64(i+1))
				if err != nil {
					t.Fatalf("seed %d prefix %d: restore: %v", seed, i+1, err)
				}
				for j := cp2.Incremental.ReplayFrom; j <= int64(i); j++ {
					if err := inc2.Append(seq[j]); err != nil {
						t.Fatalf("seed %d prefix %d: replay %d: %v", seed, i+1, j, err)
					}
				}
				rds, rst, rerr := inc2.Snapshot()
				if d := diffIncremental(rds, rst, rerr, ids, ist, ierr); d != "" {
					t.Fatalf("seed %d prefix %d: restored vs live: %s", seed, i+1, d)
				}
				inc = inc2
			}
		}
	}
}

// TestIncrementalAblationEquivalence runs the property with each pipeline
// toggle disabled, so the counter bookkeeping honors every ablation exactly
// as the batch pipeline does.
func TestIncrementalAblationEquivalence(t *testing.T) {
	seq := plantWorkload(7, 6, 0.6)
	p := incrementalProblem(7)
	for _, opt := range []PipelineOptions{
		{DisableSequenceReduction: true},
		{DisableReferencePruning: true},
		{DisableCandidateScreening: true},
		{DisablePairScreening: true},
		{DisableReferencePruning: true, DisableCandidateScreening: true, DisablePairScreening: true},
	} {
		inc, err := NewIncremental(sys, p, opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		for i, e := range seq {
			if err := inc.Append(e); err != nil {
				t.Fatalf("%+v: append %d: %v", opt, i, err)
			}
			ids, ist, ierr := inc.Snapshot()
			bds, bst, berr := Optimized(sys, p, seq[:i+1], opt)
			if d := diffIncremental(ids, ist, ierr, bds, bst, berr); d != "" {
				t.Fatalf("%+v prefix %d: %s", opt, i+1, d)
			}
		}
	}
}

// TestIncrementalExplicitCandidates pins explicit pools, References sets and
// type constraints — the Section-6 extensions — through the same property.
func TestIncrementalExplicitCandidates(t *testing.T) {
	seq := plantWorkload(11, 6, 0.7)
	p := incrementalProblem(11)
	p.Reference = ""
	p.References = []event.Type{"A", "D"}
	p.Candidates = map[core.Variable][]event.Type{
		"X1": {"B", "C", "R"},
	}
	p.DistinctType = [][2]core.Variable{{"X1", "X2"}}
	inc, err := NewIncremental(sys, p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range seq {
		if err := inc.Append(e); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		ids, ist, ierr := inc.Snapshot()
		bds, bst, berr := Optimized(sys, p, seq[:i+1], PipelineOptions{})
		if d := diffIncremental(ids, ist, ierr, bds, bst, berr); d != "" {
			t.Fatalf("prefix %d: %s", i+1, d)
		}
	}
}

// TestRestoreIncrementalHighWaterBeyondLog: a checkpoint whose high-water
// mark exceeds the durable log length must be refused with the typed error,
// so callers can re-append the lost tail and retry.
func TestRestoreIncrementalHighWaterBeyondLog(t *testing.T) {
	seq := plantWorkload(2, 6, 0.8)
	p := incrementalProblem(2)
	inc, err := NewIncremental(sys, p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendAll(seq); err != nil {
		t.Fatal(err)
	}
	cp, err := inc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreIncremental(sys, p, PipelineOptions{}, cp, int64(len(seq))-1); !errors.Is(err, ErrHighWaterBeyondLog) {
		t.Fatalf("short log: got %v, want ErrHighWaterBeyondLog", err)
	}
	// At exactly the log length the restore must succeed, replay must
	// complete, and the snapshot must equal batch.
	inc2, err := RestoreIncremental(sys, p, PipelineOptions{}, cp, int64(len(seq)))
	if err != nil {
		t.Fatal(err)
	}
	for j := cp.Incremental.ReplayFrom; j < int64(len(seq)); j++ {
		if err := inc2.Append(seq[j]); err != nil {
			t.Fatal(err)
		}
	}
	ids, ist, ierr := inc2.Snapshot()
	bds, bst, berr := Optimized(sys, p, seq, PipelineOptions{})
	if d := diffIncremental(ids, ist, ierr, bds, bst, berr); d != "" {
		t.Fatal(d)
	}
}

// TestRestoreIncrementalRejectsMismatch covers the non-crash refusals:
// wrong stage, wrong fingerprint, inverted replay window, bad counters.
func TestRestoreIncrementalRejectsMismatch(t *testing.T) {
	seq := plantWorkload(4, 6, 0.8)
	p := incrementalProblem(4)
	inc, err := NewIncremental(sys, p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inc.AppendAll(seq); err != nil {
		t.Fatal(err)
	}
	cp, err := inc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	logLen := int64(len(seq))

	if _, err := RestoreIncremental(sys, p, PipelineOptions{}, &Checkpoint{Version: CheckpointVersion, Stage: StageScan}, logLen); err == nil {
		t.Fatal("scan-stage checkpoint restored as incremental")
	}
	other := p
	other.MinConfidence = 0.99
	if _, err := RestoreIncremental(sys, other, PipelineOptions{}, cp, logLen); err == nil {
		t.Fatal("fingerprint mismatch not refused")
	}
	bad := *cp
	st := *cp.Incremental
	st.ReplayFrom, st.RefsFrom = st.RefsFrom+1, st.ReplayFrom
	bad.Incremental = &st
	if _, err := RestoreIncremental(sys, p, PipelineOptions{}, &bad, logLen); err == nil {
		t.Fatal("inverted replay window not refused")
	}
	st2 := *cp.Incremental
	st2.ClosedKept = st2.ClosedRefs + 1
	bad.Incremental = &st2
	if _, err := RestoreIncremental(sys, p, PipelineOptions{}, &bad, logLen); err == nil {
		t.Fatal("kept > closed not refused")
	}
}

// TestIncrementalRejectsOutOfOrder: the miner indexes by binary search over
// timestamps, so a time-regressing append must be refused, not absorbed.
func TestIncrementalRejectsOutOfOrder(t *testing.T) {
	p := incrementalProblem(0)
	inc, err := NewIncremental(sys, p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := event.At(1996, 1, 1, 12, 0, 0)
	if err := inc.Append(event.Event{Type: "A", Time: t0}); err != nil {
		t.Fatal(err)
	}
	if err := inc.Append(event.Event{Type: "B", Time: t0 - 1}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := inc.Append(event.Event{Type: "", Time: t0}); err == nil {
		t.Fatal("empty-type append accepted")
	}
}

// TestIncrementalAppendBatch: folding a batch must equal appending its
// events one at a time (discoveries and stats), at every batch boundary
// and for every batch size, across checkpoint shapes.
func TestIncrementalAppendBatch(t *testing.T) {
	for seed := int64(0); seed <= 5; seed++ {
		seq := plantWorkload(seed, 6, 0.6)
		p := incrementalProblem(seed)
		for _, size := range []int{1, 3, 7, len(seq)} {
			batched, err := NewIncremental(sys, p, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			serial, err := NewIncremental(sys, p, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for at := 0; at < len(seq); at += size {
				end := min(at+size, len(seq))
				if err := batched.AppendBatch(seq[at:end]); err != nil {
					t.Fatalf("seed %d size %d: batch at %d: %v", seed, size, at, err)
				}
				for _, e := range seq[at:end] {
					if err := serial.Append(e); err != nil {
						t.Fatal(err)
					}
				}
				bds, bst, berr := batched.Snapshot()
				sds, sst, serr := serial.Snapshot()
				if d := diffIncremental(bds, bst, berr, sds, sst, serr); d != "" {
					t.Fatalf("seed %d size %d after %d events: %s", seed, size, end, d)
				}
			}
		}
	}
}

// TestIncrementalAppendBatchAtomic: a bad event anywhere in a batch rejects
// the whole batch before any state mutates — the snapshot is unchanged and
// the valid prefix can be resubmitted.
func TestIncrementalAppendBatchAtomic(t *testing.T) {
	p := incrementalProblem(0)
	inc, err := NewIncremental(sys, p, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t0 := event.At(1996, 1, 1, 12, 0, 0)
	if err := inc.AppendBatch(event.Sequence{{Type: "A", Time: t0}, {Type: "B", Time: t0 + 60}}); err != nil {
		t.Fatal(err)
	}
	before, bst, berr := inc.Snapshot()
	if berr != nil {
		t.Fatal(berr)
	}
	bad := []event.Sequence{
		{{Type: "C", Time: t0 + 120}, {Type: "D", Time: t0 + 90}, {Type: "E", Time: t0 + 180}}, // out of order mid-batch
		{{Type: "C", Time: t0 + 120}, {Type: "", Time: t0 + 180}},                              // empty type
		{{Type: "C", Time: t0 - 1}}, // behind the stream clock
	}
	for i, seq := range bad {
		if err := inc.AppendBatch(seq); err == nil {
			t.Fatalf("bad batch %d accepted", i)
		}
		after, ast, aerr := inc.Snapshot()
		if d := diffIncremental(after, ast, aerr, before, bst, berr); d != "" {
			t.Fatalf("bad batch %d mutated state: %s", i, d)
		}
	}
	// The valid events from a rejected batch land fine on their own.
	if err := inc.AppendBatch(event.Sequence{{Type: "C", Time: t0 + 120}, {Type: "E", Time: t0 + 180}}); err != nil {
		t.Fatalf("resubmitting the valid prefix: %v", err)
	}
}
