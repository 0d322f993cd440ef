package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/mining"
)

func writeMinerFiles(t *testing.T) (spec, seq string) {
	t.Helper()
	dir := t.TempDir()
	spec = filepath.Join(dir, "structure.json")
	body := `{
	  "edges": [
	    {"from":"X0","to":"X1","constraints":[{"min":0,"max":0,"gran":"b-day"},{"min":1,"max":4,"gran":"hour"}]},
	    {"from":"X1","to":"X2","constraints":[{"min":1,"max":1,"gran":"b-day"}]}
	  ]
	}`
	if err := os.WriteFile(spec, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	seq = filepath.Join(dir, "events.txt")
	s := event.GeneratePlant(event.PlantFaultConfig{
		Machines: 2, StartYear: 1996, Days: 60, Seed: 17, CascadeProb: 0.8,
	})
	f, err := os.Create(seq)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := event.Encode(f, s); err != nil {
		t.Fatal(err)
	}
	return spec, seq
}

func TestMinerOptimizedAndNaiveAgree(t *testing.T) {
	spec, seq := writeMinerFiles(t)
	var opt, naive bytes.Buffer
	if err := run(&opt, spec, "", seq, "overheat-m0", "", nil, "", 0.5, false, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	if err := run(&naive, spec, "", seq, "overheat-m0", "", nil, "", 0.5, true, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	wantLine := "X0=overheat-m0 X1=malfunction-m0 X2=shutdown-m0"
	if !strings.Contains(opt.String(), wantLine) {
		t.Fatalf("optimized output missing the cascade:\n%s", opt.String())
	}
	if !strings.Contains(naive.String(), wantLine) {
		t.Fatalf("naive output missing the cascade:\n%s", naive.String())
	}
	// Same discovery lines (ignore the stats header).
	filter := func(s string) []string {
		var out []string
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "freq=") {
				out = append(out, l)
			}
		}
		return out
	}
	o, n := filter(opt.String()), filter(naive.String())
	if len(o) != len(n) {
		t.Fatalf("solution counts differ: %v vs %v", o, n)
	}
	for i := range o {
		if o[i] != n[i] {
			t.Fatalf("solutions differ: %q vs %q", o[i], n[i])
		}
	}
}

func TestMinerNoSolutions(t *testing.T) {
	spec, seq := writeMinerFiles(t)
	var out bytes.Buffer
	if err := run(&out, spec, "", seq, "overheat-m0", "", nil, "", 0.999, false, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no complex event type exceeds confidence") {
		t.Fatalf("expected empty result message:\n%s", out.String())
	}
}

func TestMinerErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "", "", "", "x", "", nil, "", 0.5, false, false, 0, 0, &cli.EngineFlags{}); err == nil {
		t.Fatal("missing spec accepted")
	}
	spec, seq := writeMinerFiles(t)
	if err := run(&out, spec, "", seq, "", "", nil, "", 0.5, false, false, 0, 0, &cli.EngineFlags{}); err == nil {
		t.Fatal("missing reference accepted")
	}
	if err := run(&out, spec, "", seq, "ghost", "", nil, "", 0.5, false, false, 0, 0, &cli.EngineFlags{}); err == nil {
		t.Fatal("absent reference accepted")
	}
}

func TestMinerProblemSpec(t *testing.T) {
	_, seq := writeMinerFiles(t)
	dir := t.TempDir()
	problem := filepath.Join(dir, "problem.json")
	body := `{
	  "structure": {
	    "edges": [
	      {"from":"X0","to":"X1","constraints":[{"min":0,"max":0,"gran":"b-day"},{"min":1,"max":4,"gran":"hour"}]},
	      {"from":"X1","to":"X2","constraints":[{"min":1,"max":1,"gran":"b-day"}]}
	    ]
	  },
	  "min_confidence": 0.5,
	  "reference": "overheat-m0",
	  "candidates": {"X1": ["malfunction-m0","pressure-drop-m0"], "X2": ["shutdown-m0"]},
	  "workers": 4
	}`
	if err := os.WriteFile(problem, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, "", problem, seq, "", "", nil, "", 0, false, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "X1=malfunction-m0 X2=shutdown-m0") {
		t.Fatalf("problem-spec run missing the cascade:\n%s", out.String())
	}
	// Granule-anchored problem.
	anchored := filepath.Join(dir, "anchored.json")
	body2 := `{
	  "structure": {
	    "edges": [
	      {"from":"W","to":"X","constraints":[{"min":0,"max":0,"gran":"week"}]}
	    ]
	  },
	  "min_confidence": 0.8,
	  "granule_anchor": "week",
	  "candidates": {"X": ["overheat-m0"]}
	}`
	if err := os.WriteFile(anchored, []byte(body2), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(&out, "", anchored, seq, "", "", nil, "", 0, false, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "references=") {
		t.Fatalf("anchored run produced no stats:\n%s", out.String())
	}
	// Spec errors.
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"structure":{"edges":[]},"min_confidence":0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(&out, "", bad, seq, "", "", nil, "", 0, false, false, 0, 0, &cli.EngineFlags{}); err == nil {
		t.Fatal("empty structure and no reference accepted")
	}
}

func TestMinerExplain(t *testing.T) {
	spec, seq := writeMinerFiles(t)
	var out bytes.Buffer
	if err := run(&out, spec, "", seq, "overheat-m0", "", nil, "", 0.5, false, false, 2, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "witness @ ") {
		t.Fatalf("missing witnesses:\n%s", got)
	}
	if n := strings.Count(got, "witness @ "); n > 2 {
		t.Fatalf("explain limit ignored: %d witnesses", n)
	}
}

func TestMinerDSLSpec(t *testing.T) {
	_, seq := writeMinerFiles(t)
	dsl := filepath.Join(t.TempDir(), "cascade.tcg")
	body := "X0 -> X1 : [0,0]b-day [1,4]hour\nX1 -> X2 : [1,1]b-day\n"
	if err := os.WriteFile(dsl, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(&out, dsl, "", seq, "overheat-m0", "", nil, "", 0.5, false, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "X1=malfunction-m0 X2=shutdown-m0") {
		t.Fatalf("DSL spec run missing the cascade:\n%s", out.String())
	}
}

// TestMinerCheckpointResume interrupts the mine with small budgets, each
// round 20 units larger, and checks the final discovery lines equal an
// uninterrupted run's. The step is narrower than the ~50 units the step-5
// scan takes here, so some round stops inside the scan and checkpoints it;
// rounds that stop in steps 1-4 write nothing.
func TestMinerCheckpointResume(t *testing.T) {
	spec, seq := writeMinerFiles(t)
	var want bytes.Buffer
	if err := run(&want, spec, "", seq, "overheat-m0", "", nil, "", 0.5, false, false, 0, 0, &cli.EngineFlags{}); err != nil {
		t.Fatal(err)
	}
	filter := func(s string) []string {
		var out []string
		for _, l := range strings.Split(s, "\n") {
			if strings.HasPrefix(l, "freq=") {
				out = append(out, l)
			}
		}
		return out
	}
	cp := filepath.Join(t.TempDir(), "mine.ckpt")
	budget := int64(50)
	var last string
	interrupts, scanWrites := 0, 0
	for i := 0; ; i++ {
		if i > 40 {
			t.Fatal("no convergence in 40 resumed mines")
		}
		var out bytes.Buffer
		if err := run(&out, spec, "", seq, "overheat-m0", "", nil, cp, 0.5, false, false, 0, 0, &cli.EngineFlags{Budget: budget}); err != nil {
			t.Fatal(err)
		}
		last = out.String()
		if strings.Contains(last, "INTERRUPTED") {
			interrupts++
			switch {
			case strings.Contains(last, "(stage scan)"):
				scanWrites++
			case !strings.Contains(last, stepsNote):
				t.Fatalf("interruption neither checkpointed in the scan nor explained:\n%s", last)
			}
			budget += 20
			continue
		}
		break
	}
	if interrupts == 0 || scanWrites == 0 {
		t.Fatalf("%d interruptions, %d scan-stage checkpoints; test is vacuous", interrupts, scanWrites)
	}
	if !strings.Contains(last, "resumed from") {
		t.Fatalf("final run did not resume:\n%s", last)
	}
	got, exp := filter(last), filter(want.String())
	if len(got) != len(exp) {
		t.Fatalf("solution counts differ: %v vs %v", got, exp)
	}
	for i := range got {
		if got[i] != exp[i] {
			t.Fatalf("solutions differ: %q vs %q", got[i], exp[i])
		}
	}
	if _, err := os.Stat(cp); !os.IsNotExist(err) {
		t.Fatalf("finished mine left checkpoint behind (err=%v)", err)
	}
}

// stepsNote is what the miner prints instead of writing a checkpoint that
// could not progress.
const stepsNote = "no checkpoint written: steps 1-4 re-run on every start"

// TestMinerStepsStageWritesNoCheckpoint: a budget that trips in steps 1-4
// leaves nothing a resume could skip, so two runs at it write no checkpoint
// and say why, and a steps-stage checkpoint left by an earlier build is
// removed rather than resumed forever.
func TestMinerStepsStageWritesNoCheckpoint(t *testing.T) {
	spec, seq := writeMinerFiles(t)
	cp := filepath.Join(t.TempDir(), "mine.ckpt")
	s, assign, err := cli.LoadStructure(spec)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := cli.ReadSequence(seq)
	if err != nil {
		t.Fatal(err)
	}
	p := mining.Problem{Structure: s, MinConfidence: 0.5, Reference: "overheat-m0", Candidates: map[core.Variable][]event.Type{}}
	for v, typ := range assign {
		p.Candidates[v] = []event.Type{typ}
	}
	opt := mining.PipelineOptions{Workers: cli.ResolveWorkers(0, 0), Engine: engine.Config{Budget: 50}}
	_, _, old, err := mining.OptimizedCheckpoint(granularity.Default(), p, evs, opt)
	if old == nil || old.Stage != mining.StageSteps {
		t.Fatalf("budget 50 should stop in steps 1-4 (checkpoint %+v, err %v)", old, err)
	}
	var buf bytes.Buffer
	if err := old.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cp, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var out bytes.Buffer
		if err := run(&out, spec, "", seq, "overheat-m0", "", nil, cp, 0.5, false, false, 0, 0, &cli.EngineFlags{Budget: 50}); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "INTERRUPTED") || !strings.Contains(out.String(), stepsNote) {
			t.Fatalf("run %d:\n%s", i, out.String())
		}
		if _, err := os.Stat(cp); !os.IsNotExist(err) {
			t.Fatalf("run %d left a checkpoint behind (err=%v):\n%s", i, err, out.String())
		}
	}
}

// TestMinerCheckpointNaiveRefused ensures the flag combination errors.
func TestMinerCheckpointNaiveRefused(t *testing.T) {
	spec, seq := writeMinerFiles(t)
	var out bytes.Buffer
	err := run(&out, spec, "", seq, "overheat-m0", "", nil, filepath.Join(t.TempDir(), "c"), 0.5, true, false, 0, 0, &cli.EngineFlags{})
	if err == nil {
		t.Fatal("-checkpoint with -naive accepted")
	}
}
