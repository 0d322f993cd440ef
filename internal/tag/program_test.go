package tag

import (
	"errors"
	"maps"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// bruteMinOccurrence enumerates every injective binding of seq indexes to
// the complex type's variables and keeps those that are occurrences
// (ComplexType.IsOccurrence; no automaton involved). It returns the
// earliest index at which an occurrence completes and the smallest
// occurrence completing there, comparing bound indexes in sorted-variable
// order; -1 and nil when the type does not occur.
func bruteMinOccurrence(ct *core.ComplexType, seq event.Sequence) (int, map[string]int) {
	vars := append([]core.Variable(nil), ct.Structure.Variables()...)
	slices.Sort(vars)
	idx := make([]int, len(vars))
	var best []int
	bestAt := -1
	var rec func(k int)
	rec = func(k int) {
		if k == len(vars) {
			b := core.Binding{}
			for i, v := range vars {
				b[v] = seq[idx[i]]
			}
			at := slices.Max(idx)
			if ct.IsOccurrence(sys, b) && (best == nil || at < bestAt || at == bestAt && slices.Compare(idx, best) < 0) {
				best, bestAt = append(best[:0], idx...), at
			}
			return
		}
		for i, e := range seq {
			if e.Type == ct.Assign[vars[k]] && !slices.Contains(idx[:k], i) {
				idx[k] = i
				rec(k + 1)
			}
		}
	}
	rec(0)
	if best == nil {
		return -1, nil
	}
	w := make(map[string]int, len(vars))
	for i, v := range vars {
		w[string(v)] = best[i]
	}
	return bestAt, w
}

// TestWitnessIsMinimalOccurrenceFuzz: over random diamond sequences the
// batch run accepts on the event where the earliest brute-force occurrence
// completes and reports the smallest occurrence completing there, and a
// Runner fed the same events accepts on the same event with the same
// binding.
func TestWitnessIsMinimalOccurrenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := diamondStructure()
	assign := map[core.Variable]event.Type{"X0": "a", "X1": "b", "X2": "c", "X3": "d"}
	ct, _ := core.NewComplexType(s, assign)
	a, err := Compile(ct)
	if err != nil {
		t.Fatal(err)
	}
	types := []event.Type{"a", "b", "c", "d"}
	positives := 0
	for trial := 0; trial < 200; trial++ {
		seq := randomSeq(rng, types, 12, event.At(1996, 4, 1, 0, 0, 0), 20*86400)
		wantAt, want := bruteMinOccurrence(ct, seq)
		w, ok, rs := a.FindOccurrence(sys, seq, RunOptions{})
		if ok != (want != nil) {
			t.Fatalf("trial %d: FindOccurrence=%v, brute-force minimum %v", trial, ok, want)
		}
		if !ok {
			continue
		}
		positives++
		if rs.AcceptedAt != wantAt || !maps.Equal(w, want) {
			t.Fatalf("trial %d: accepted at %d with %v, want %d with %v", trial, rs.AcceptedAt, w, wantAt, want)
		}
		r := a.NewRunner(sys, RunOptions{})
		for _, e := range seq {
			r.Feed(e)
		}
		if !r.Accepted() || r.Steps()-1 != wantAt || !maps.Equal(r.Binding(), want) {
			t.Fatalf("trial %d: Runner accepted=%v at %d with %v, want %d with %v",
				trial, r.Accepted(), r.Steps()-1, r.Binding(), wantAt, want)
		}
	}
	if positives < 10 {
		t.Fatalf("only %d of 200 sequences contain an occurrence", positives)
	}
}

// tieBreakTAG binds "a" on any a-event and accepts on a later "b";
// tieBreakSeq feeds it x-events with "a" at indexes 1 and 12, then "b" at
// index 13, so two runs reach the accepting state on the last event, one
// binding a=1 and one a=12.
func tieBreakTAG() *TAG {
	a := NewTAG()
	s0 := a.AddState("s0")
	s1 := a.AddState("s1")
	acc := a.AddState("acc")
	a.MarkStart(s0)
	a.MarkAccept(acc)
	a.AddTransition(Transition{From: s0, To: s0, Any: true, Guard: True{}})
	a.AddTransition(Transition{From: s1, To: s1, Any: true, Guard: True{}})
	a.AddTransition(Transition{From: s0, To: s1, Symbol: "a", Guard: True{}, Binds: "a"})
	a.AddTransition(Transition{From: s1, To: acc, Symbol: "b", Guard: True{}})
	return a
}

func tieBreakSeq() event.Sequence {
	var seq event.Sequence
	base := event.At(1996, 4, 1, 0, 0, 0)
	for i := 0; i < 13; i++ {
		typ := event.Type("x")
		if i == 1 || i == 12 {
			typ = "a"
		}
		seq = append(seq, event.Event{Type: typ, Time: base + int64(i)})
	}
	return append(seq, event.Event{Type: "b", Time: base + 13})
}

// TestCompiledBindingTieBreakQuirk: runs that meet in one state keep the
// binding with the smaller event indexes, compared as numbers, so the
// tie-break TAG reports a=1 — in the batch run and in the Runner. (Earlier
// builds compared the bindings as "name=index;" strings, where "a=12;" <
// "a=1;", and reported a=12.)
func TestCompiledBindingTieBreakQuirk(t *testing.T) {
	a, seq := tieBreakTAG(), tieBreakSeq()
	w, ok, _ := a.FindOccurrence(sys, seq, RunOptions{})
	if !ok || !maps.Equal(w, map[string]int{"a": 1}) {
		t.Fatalf("batch witness %v ok=%v, want a=1", w, ok)
	}
	r := a.NewRunner(sys, RunOptions{})
	for _, e := range seq {
		r.Feed(e)
	}
	if !r.Accepted() || !maps.Equal(r.Binding(), map[string]int{"a": 1}) {
		t.Fatalf("Runner witness %v accepted=%v, want a=1", r.Binding(), r.Accepted())
	}
}

// TestCrossBuildCheckpointRestore: testdata/tiebreak-checkpoint-v1.json is
// the checkpoint an earlier build, one with the string-order tie-break,
// wrote for the tie-break TAG after its first 13 events; its frontier
// binds a=12. It restores here, and the final "b" accepts with the a=12
// binding it carried — a valid witness and the same verdict — while a
// fresh run reports a=1. This is why the tie-break change leaves
// ExecSchemaVersion at 1.
func TestCrossBuildCheckpointRestore(t *testing.T) {
	f, err := os.Open("testdata/tiebreak-checkpoint-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cp, err := DecodeCheckpoint(f)
	if err != nil {
		t.Fatal(err)
	}
	a, seq := tieBreakTAG(), tieBreakSeq()
	r, err := RestoreRunner(a, sys, RunOptions{}, cp)
	if err != nil {
		t.Fatalf("restoring the earlier build's checkpoint: %v", err)
	}
	if r.Steps() != 13 {
		t.Fatalf("restored runner at step %d, want 13", r.Steps())
	}
	if accepted, ok := r.Feed(seq[13]); !accepted || !ok {
		t.Fatalf("restored runner on the final b: accepted=%v ok=%v", accepted, ok)
	}
	if !maps.Equal(r.Binding(), map[string]int{"a": 12}) {
		t.Fatalf("restored runner binding %v, want a=12 from the checkpoint", r.Binding())
	}
	if w, ok, _ := a.FindOccurrence(sys, seq, RunOptions{}); !ok || !maps.Equal(w, map[string]int{"a": 1}) {
		t.Fatalf("fresh run witness %v ok=%v, want a=1", w, ok)
	}
}

// TestCheckpointSchemaMismatch: snapshots carry the execution-state schema
// version; restoring a foreign schema fails with the typed error before any
// fingerprint comparison.
func TestCheckpointSchemaMismatch(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	r := a.NewRunner(sys, RunOptions{})
	for _, e := range fig1aScenario()[:3] {
		r.Feed(e)
	}
	cp, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if cp.ExecSchema != ExecSchemaVersion {
		t.Fatalf("snapshot carries schema %d, want %d", cp.ExecSchema, ExecSchemaVersion)
	}
	cp.ExecSchema = ExecSchemaVersion + 1
	cp.Fingerprint = "tampered-too" // schema must win over fingerprint
	_, err = RestoreRunner(a, sys, RunOptions{}, &cp)
	var sm *SchemaMismatchError
	if !errors.As(err, &sm) {
		t.Fatalf("restore of schema %d returned %v, want *SchemaMismatchError", cp.ExecSchema, err)
	}
	if sm.Got != ExecSchemaVersion+1 || sm.Want != ExecSchemaVersion {
		t.Fatalf("SchemaMismatchError carries got=%d want=%d", sm.Got, sm.Want)
	}
	// A zero schema (snapshots predating the field) is refused the same way.
	cp.ExecSchema = 0
	if _, err = RestoreRunner(a, sys, RunOptions{}, &cp); !errors.As(err, &sm) {
		t.Fatalf("restore of schema 0 returned %v, want *SchemaMismatchError", err)
	}
}

// TestCheckpointRejectsUnknownBinder: a frontier binding for a variable no
// transition binds is refused by validation.
func TestCheckpointRejectsUnknownBinder(t *testing.T) {
	ct, _ := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	a, _ := Compile(ct)
	r := a.NewRunner(sys, RunOptions{})
	for _, e := range fig1aScenario()[:3] {
		r.Feed(e)
	}
	cp, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(cp.Frontier) == 0 {
		t.Fatal("snapshot has an empty frontier; pick a longer prefix")
	}
	if cp.Frontier[0].Binding == nil {
		cp.Frontier[0].Binding = map[string]int{}
	}
	cp.Frontier[0].Binding["no-such-var"] = 0
	if _, err := RestoreRunner(a, sys, RunOptions{}, &cp); err == nil ||
		!strings.Contains(err.Error(), "no-such-var") {
		t.Fatalf("restore with unknown binder returned %v, want a binder rejection", err)
	}
}

// TestProgramCacheInvalidation: mutating the automaton's shape after a run
// rebuilds the compiled program.
func TestProgramCacheInvalidation(t *testing.T) {
	a := NewTAG()
	s0 := a.AddState("s0")
	acc := a.AddState("acc")
	a.MarkStart(s0)
	a.MarkAccept(acc)
	a.AddTransition(Transition{From: s0, To: s0, Any: true, Guard: True{}})
	a.AddTransition(Transition{From: s0, To: acc, Symbol: "hit", Guard: True{}})

	base := event.At(1996, 4, 1, 0, 0, 0)
	seq := event.Sequence{{Type: "miss", Time: base}, {Type: "hit", Time: base + 1}}
	if ok, _ := a.Accepts(sys, seq, RunOptions{}); !ok {
		t.Fatal("baseline automaton must accept")
	}
	p1 := a.prog.Load()

	// Adding a transition must invalidate the cached program.
	s1 := a.AddState("s1")
	a.AddTransition(Transition{From: s0, To: s1, Symbol: "detour", Guard: True{}})
	if ok, _ := a.Accepts(sys, seq, RunOptions{}); !ok {
		t.Fatal("extended automaton must still accept")
	}
	if p2 := a.prog.Load(); p2 == p1 {
		t.Fatal("program cache not invalidated by AddState/AddTransition")
	}
}
