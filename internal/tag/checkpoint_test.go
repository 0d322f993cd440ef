package tag

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
)

// feedAll feeds a sequence and returns the 0-based accept index (-1 when
// not accepted), offset so indices are global when resuming mid-sequence.
func feedAll(t *testing.T, r *Runner, seq event.Sequence, offset int) int {
	t.Helper()
	for i, e := range seq {
		acc, ok := r.Feed(e)
		if !ok {
			t.Fatalf("event %d rejected: %v (%v)", offset+i, r.LastReject(), r.Err())
		}
		if acc {
			return offset + i
		}
	}
	return -1
}

// TestSnapshotRestoreEqualsUninterrupted: the core recovery property — for
// every split point k, feeding k events / snapshot / encode / decode /
// restore / feeding the rest equals feeding everything into one runner:
// same acceptance event and same witness binding.
func TestSnapshotRestoreEqualsUninterrupted(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, err := Compile(ct)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []RunOptions{{}, {Strict: true}, {Anchored: true}} {
		seq := fig1aScenario()
		if opt.Anchored {
			seq = seq[1:] // anchor on the real root occurrence
		}
		full := a.NewRunner(sys, opt)
		wantAt := feedAll(t, full, seq, 0)
		wantBind := full.Binding()
		for k := 0; k <= len(seq); k++ {
			r := a.NewRunner(sys, opt)
			splitAt := feedAll(t, r, seq[:k], 0)
			cp, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := cp.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			cp2, err := DecodeCheckpoint(&buf)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RestoreRunner(a, sys, opt, cp2)
			if err != nil {
				t.Fatalf("k=%d: restore: %v", k, err)
			}
			gotAt := splitAt
			if gotAt < 0 {
				gotAt = feedAll(t, r2, seq[k:], k)
			}
			if gotAt != wantAt {
				t.Fatalf("opt=%+v k=%d: resumed accepts at %d, uninterrupted at %d", opt, k, gotAt, wantAt)
			}
			if r2.Accepted() != full.Accepted() {
				t.Fatalf("opt=%+v k=%d: resumed accepted=%v, want %v", opt, k, r2.Accepted(), full.Accepted())
			}
			if splitAt < 0 && !reflect.DeepEqual(r2.Binding(), wantBind) {
				t.Fatalf("opt=%+v k=%d: resumed binding %v, want %v", opt, k, r2.Binding(), wantBind)
			}
			if splitAt < 0 && r2.Steps() != full.Steps() && full.Accepted() {
				t.Fatalf("opt=%+v k=%d: resumed steps %d, want %d", opt, k, r2.Steps(), full.Steps())
			}
		}
	}
}

// TestSnapshotRestoreRandomized: the same property over random sequences
// and a diamond structure, including non-accepting runs.
func TestSnapshotRestoreRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	s := diamondStructure()
	assign := map[core.Variable]event.Type{"X0": "a", "X1": "b", "X2": "c", "X3": "d"}
	ct, _ := core.NewComplexType(s, assign)
	a, _ := Compile(ct)
	types := []event.Type{"a", "b", "c", "d"}
	for trial := 0; trial < 120; trial++ {
		seq := randomSeq(rng, types, 8, event.At(1996, 4, 1, 0, 0, 0), 15*86400)
		if rng.Intn(2) == 0 {
			base := event.At(1996, 4, 1, 0, 0, 0) + rng.Int63n(8*86400)
			cur := base
			for _, v := range mustTopo(s) {
				seq = append(seq, event.Event{Type: assign[v], Time: cur})
				cur += rng.Int63n(2*86400) + 1
			}
		}
		seq.Sort()
		seq = dedupTimes(seq)
		full := a.NewRunner(sys, RunOptions{})
		wantAt := feedAll(t, full, seq, 0)
		k := rng.Intn(len(seq) + 1)
		r := a.NewRunner(sys, RunOptions{})
		splitAt := feedAll(t, r, seq[:k], 0)
		cp, _ := r.Snapshot()
		r2, err := RestoreRunner(a, sys, RunOptions{}, &cp)
		if err != nil {
			t.Fatal(err)
		}
		gotAt := splitAt
		if gotAt < 0 {
			gotAt = feedAll(t, r2, seq[k:], k)
		}
		if gotAt != wantAt {
			t.Fatalf("trial %d k=%d: resumed accepts at %d, uninterrupted at %d", trial, k, gotAt, wantAt)
		}
		if splitAt < 0 && !reflect.DeepEqual(r2.Binding(), full.Binding()) {
			t.Fatalf("trial %d k=%d: binding %v, want %v", trial, k, r2.Binding(), full.Binding())
		}
	}
}

// TestSnapshotAfterInterruptResumes: an interrupted runner snapshots at the
// boundary before the refused event; restoring with a fresh engine and
// re-feeding from that event completes the run as if never interrupted.
func TestSnapshotAfterInterruptResumes(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	seq := fig1aScenario()
	full := a.NewRunner(sys, RunOptions{})
	wantAt := feedAll(t, full, seq, 0)

	r := a.NewRunner(sys, RunOptions{Engine: engine.Config{Budget: 3}})
	fedUpTo := -1
	for i, e := range seq {
		if _, ok := r.Feed(e); !ok {
			break
		}
		fedUpTo = i
	}
	if r.Err() == nil || !errors.Is(r.Err(), engine.ErrInterrupted) {
		t.Fatalf("budget 3 never interrupted (fed up to %d)", fedUpTo)
	}
	if r.LastReject() != RejectInterrupted {
		t.Fatalf("LastReject = %v, want RejectInterrupted", r.LastReject())
	}
	if r.Steps() != fedUpTo+1 {
		t.Fatalf("interrupted runner consumed %d events, fed %d", r.Steps(), fedUpTo+1)
	}
	cp, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreRunner(a, sys, RunOptions{}, &cp)
	if err != nil {
		t.Fatal(err)
	}
	gotAt := feedAll(t, r2, seq[cp.Steps:], cp.Steps)
	if gotAt != wantAt {
		t.Fatalf("resumed accepts at %d, uninterrupted at %d", gotAt, wantAt)
	}
	if !reflect.DeepEqual(r2.Binding(), full.Binding()) {
		t.Fatalf("resumed binding %v, want %v", r2.Binding(), full.Binding())
	}
}

// TestRestoreRefusesMismatch: wrong automaton, wrong semantics, wrong
// version, malformed frontier — every mismatch is a typed refusal, never a
// silent wrong-state resume.
func TestRestoreRefusesMismatch(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	seq := fig1aScenario()
	r := a.NewRunner(sys, RunOptions{})
	feedAll(t, r, seq[:3], 0)
	cp, _ := r.Snapshot()

	other, _ := core.NewComplexType(diamondStructure(),
		map[core.Variable]event.Type{"X0": "a", "X1": "b", "X2": "c", "X3": "d"})
	b, _ := Compile(other)
	if _, err := RestoreRunner(b, sys, RunOptions{}, &cp); err == nil {
		t.Fatal("restore against a different automaton must fail")
	}
	if _, err := RestoreRunner(a, sys, RunOptions{Strict: true}, &cp); err == nil {
		t.Fatal("restore under different semantics must fail")
	}
	empty := granularity.NewSystem(400*365*86400, 4096)
	if _, err := RestoreRunner(a, empty, RunOptions{}, &cp); err == nil {
		t.Fatal("restore against a system lacking the clock granularities must fail")
	}
	bad := cp
	bad.Version = 99
	if _, err := RestoreRunner(a, sys, RunOptions{}, &bad); err == nil {
		t.Fatal("restore of a future version must fail")
	}
	bad = cp
	bad.Frontier = append([]CheckpointRun(nil), cp.Frontier...)
	if len(bad.Frontier) == 0 {
		t.Fatal("expected a non-empty frontier after 3 events")
	}
	bad.Frontier[0].State = 9999
	if _, err := RestoreRunner(a, sys, RunOptions{}, &bad); err == nil {
		t.Fatal("restore with an out-of-range state must fail")
	}
	bad = cp
	bad.CurOK = nil
	if _, err := RestoreRunner(a, sys, RunOptions{}, &bad); err == nil {
		t.Fatal("restore with missing clock flags must fail")
	}
	// And the happy path still works.
	if _, err := RestoreRunner(a, sys, RunOptions{}, &cp); err != nil {
		t.Fatalf("valid restore failed: %v", err)
	}
}

// TestFingerprintGolden pins cross-build checkpoint compatibility: the
// Fig-1a TAG's fingerprint under the default system, and the table
// signatures fingerprints digest, equal the values earlier builds wrote, so
// checkpoints they took over these clocks still restore. Any change here
// refuses every persisted session over the clock granularities involved.
func TestFingerprintGolden(t *testing.T) {
	def := granularity.Default()
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, err := Compile(ct)
	if err != nil {
		t.Fatal(err)
	}
	const wantFP = "975ea8ba74640b51ca76e8500072be0b7b8d416293ecb00d7103a22ddf172771"
	if got := a.Fingerprint(def); got != wantFP {
		t.Errorf("Fig-1a fingerprint = %s, want %s", got, wantFP)
	}
	for name, want := range map[string]string{
		"hour":    "f2789260e8a3d5035f0c9360",
		"b-day":   "d4daedb48cfc45c9403090f9",
		"week":    "b56f21ab58120572d5fb7044",
		"month":   "6dda513f7b290411bc408fd0",
		"f-month": "537f2a5ef65e5423c0fc62e4",
	} {
		tb := def.Table(name)
		if tb == nil {
			t.Errorf("%s: no periodic table", name)
		} else if got := tb.Signature(); got != want {
			t.Errorf("%s: table signature = %s, want %s", name, got, want)
		}
	}
}

// TestCheckpointDegradedSurvives: the degraded flag and reject counters
// survive a snapshot/restore round trip.
func TestCheckpointDegradedSurvives(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	seq := fig1aScenario()
	c := engine.NewCounters()
	r := a.NewRunner(sys, RunOptions{MaxFrontier: 1, Engine: engine.Config{Observer: c}})
	for _, e := range seq {
		if r.Accepted() {
			break
		}
		r.Feed(e)
	}
	if !r.Degraded() {
		t.Skip("valve never tripped on this scenario")
	}
	if c.Get("tag.frontier.overflows") <= 0 {
		t.Fatal("overflow not counted")
	}
	cp, _ := r.Snapshot()
	if !cp.Degraded {
		t.Fatal("degraded flag lost in snapshot")
	}
	r2, err := RestoreRunner(a, sys, RunOptions{MaxFrontier: 1}, &cp)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Degraded() {
		t.Fatal("degraded flag lost in restore")
	}
}

// TestRunnerRejectReasons pins the typed reject causes.
func TestRunnerRejectReasons(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	c := engine.NewCounters()
	r := a.NewRunner(sys, RunOptions{Engine: engine.Config{Budget: 2, Observer: c}})
	if r.LastReject() != RejectNone {
		t.Fatalf("fresh runner LastReject = %v", r.LastReject())
	}
	if _, ok := r.Feed(event.Event{Type: "x", Time: 1000}); !ok {
		t.Fatal("first event rejected")
	}
	if r.LastReject() != RejectNone {
		t.Fatalf("after success LastReject = %v", r.LastReject())
	}
	if _, ok := r.Feed(event.Event{Type: "y", Time: 999}); ok {
		t.Fatal("out-of-order event accepted")
	}
	if r.LastReject() != RejectOutOfOrder {
		t.Fatalf("LastReject = %v, want RejectOutOfOrder", r.LastReject())
	}
	// Budget 1 is exhausted by the first feed: the next in-order event is an
	// interruption, and the one after that a sealed refusal.
	if _, ok := r.Feed(event.Event{Type: "y", Time: 1001}); ok {
		t.Fatal("budget-starved event accepted")
	}
	if r.LastReject() != RejectInterrupted {
		t.Fatalf("LastReject = %v, want RejectInterrupted", r.LastReject())
	}
	if _, ok := r.Feed(event.Event{Type: "z", Time: 1002}); ok {
		t.Fatal("sealed runner accepted an event")
	}
	if r.LastReject() != RejectSealed {
		t.Fatalf("LastReject = %v, want RejectSealed", r.LastReject())
	}
	if got := c.Get("tag.events.rejected"); got != 3 {
		t.Fatalf("tag.events.rejected = %d, want 3", got)
	}
	for _, rr := range []RejectReason{RejectNone, RejectOutOfOrder, RejectInterrupted, RejectSealed, RejectReason(42)} {
		if rr.String() == "" {
			t.Fatalf("empty String for %d", int(rr))
		}
	}
}

// FuzzCheckpoint: decode(encode(x)) == x for snapshots, and arbitrary bytes
// never panic the decoder.
func FuzzCheckpoint(f *testing.F) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, err := Compile(ct)
	if err != nil {
		f.Fatal(err)
	}
	seq := fig1aScenario()
	for k := 0; k <= len(seq); k += 2 {
		r := a.NewRunner(sys, RunOptions{})
		for _, e := range seq[:k] {
			r.Feed(e)
		}
		cp, _ := r.Snapshot()
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{"))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := DecodeCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever decoded must re-encode and decode to the same value.
		var buf bytes.Buffer
		if err := cp.Encode(&buf); err != nil {
			t.Fatalf("accepted checkpoint failed to encode: %v", err)
		}
		cp2, err := DecodeCheckpoint(strings.NewReader(buf.String()))
		if err != nil {
			t.Fatalf("encoded checkpoint failed to re-decode: %v", err)
		}
		if !reflect.DeepEqual(cp, cp2) {
			t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", cp, cp2)
		}
		// Restore either fails cleanly or yields a usable runner; never a
		// panic.
		r, err := RestoreRunner(a, sys, RunOptions{Anchored: cp.Anchored, Strict: cp.Strict}, cp)
		if err != nil {
			return
		}
		r.Feed(event.Event{Type: "IBM-rise", Time: cp.PrevTime + 1})
	})
}
