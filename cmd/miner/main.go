// Command miner runs an event-discovery problem end to end: given an event
// structure, a reference type and a confidence threshold, it finds every
// typing of the structure's variables that occurs frequently in a sequence.
//
// Usage:
//
//	miner -spec structure.json -seq events.txt -ref IBM-rise -tau 0.5 [-naive]
//
// The shared solver flags -timeout, -budget and -stats bound the optimized
// pipeline and print the engine counter table; an interrupted mine reports
// INTERRUPTED with the work done so far instead of failing.
//
// With -checkpoint FILE (optimized pipeline only), an interrupted mine
// writes a resumable snapshot of its per-candidate scan progress to FILE,
// and a later invocation with the same flags loads it and continues —
// reporting exactly the discovery set an uninterrupted mine would have. The
// file is removed once the mine completes. A mine interrupted before the
// step-5 scan writes no snapshot: steps 1-4 re-run on every start, so only
// a larger -budget or -timeout gets further.
//
// A spec with an "assign" entry restricts the candidate pool of the listed
// variables (the paper's Φ); assign the root only via -ref.
//
// -workers N shards the step-5 candidate scans over N goroutines (default:
// the problem spec's "workers", else one per core). Discoveries, stats and
// checkpoints are byte-identical for every worker count.
//
// -json emits the canonical JSON result instead of text — byte-identical to
// the "result" object of a tempod mining job for the same problem.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/mining"
	"repro/internal/store"
)

func main() {
	specPath := flag.String("spec", "", "path to the structure spec JSON")
	problemPath := flag.String("problem", "", "path to a full problem spec JSON (overrides -spec/-ref/-tau)")
	seqPath := flag.String("seq", "", "path to the event sequence (default: stdin)")
	ref := flag.String("ref", "", "reference event type E0 (assigned to the root)")
	tau := flag.Float64("tau", 0.5, "minimum confidence threshold")
	naive := flag.Bool("naive", false, "use the naive algorithm instead of the optimized pipeline")
	grans := flag.String("grans", "", "comma-separated periodic-granularity spec files to register")
	var defines cli.DefineFlags
	defines.Var()
	explain := flag.Int("explain", 0, "print up to N witness occurrences per discovery")
	checkpoint := flag.String("checkpoint", "", "write a resumable snapshot here on interruption; load it if present")
	jsonOut := flag.Bool("json", false, "emit the canonical JSON result instead of text")
	version := cli.RegisterVersionFlag(flag.CommandLine)
	workers := cli.RegisterWorkersFlag(flag.CommandLine)
	ef := cli.RegisterEngineFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		cli.PrintVersion(os.Stdout)
		return
	}

	if err := run(os.Stdout, *specPath, *problemPath, *seqPath, *ref, *grans, defines, *checkpoint, *tau, *naive, *jsonOut, *explain, *workers, ef); err != nil {
		fmt.Fprintln(os.Stderr, "miner:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, specPath, problemPath, seqPath, ref, gransFlag string, defines []string, cpPath string, tau float64, naive, jsonOut bool, explain, workers int, ef *cli.EngineFlags) error {
	defer ef.Finish(out)
	// Text mode streams notices (resume/checkpoint lines) as they happen;
	// JSON mode suppresses them and emits one canonical document at the end.
	textw := out
	if jsonOut {
		textw = io.Discard
	}
	sys, err := cli.LoadSystem(gransFlag, defines)
	if err != nil {
		return err
	}
	seq, err := cli.ReadSequence(seqPath)
	if err != nil {
		return err
	}

	var p mining.Problem
	opt := mining.PipelineOptions{}
	switch {
	case problemPath != "":
		pf, err := os.Open(problemPath)
		if err != nil {
			return err
		}
		ps, err := mining.ReadProblemSpec(pf)
		pf.Close()
		if err != nil {
			return err
		}
		p, seq, opt, err = ps.Build(sys, seq)
		if err != nil {
			return err
		}
		tau = p.MinConfidence
	case specPath != "" && ref != "":
		s, assign, err := cli.LoadStructure(specPath)
		if err != nil {
			return err
		}
		candidates := map[core.Variable][]event.Type{}
		for v, typ := range assign {
			candidates[v] = []event.Type{typ}
		}
		p = mining.Problem{
			Structure:     s,
			MinConfidence: tau,
			Reference:     event.Type(ref),
			Candidates:    candidates,
		}
	default:
		return fmt.Errorf("either -problem, or -spec and -ref, are required")
	}

	if cpPath != "" && naive {
		return fmt.Errorf("-checkpoint requires the optimized pipeline (drop -naive)")
	}
	// -workers beats the problem spec's "workers"; with neither, use every
	// core. The scan output is byte-identical for every worker count.
	opt.Workers = cli.ResolveWorkers(workers, opt.Workers)
	var ds []mining.Discovery
	var stats mining.Stats
	switch {
	case naive:
		ds, stats, err = mining.Naive(sys, p, seq)
	case cpPath != "":
		opt.Engine = ef.Config()
		var cp, next *mining.Checkpoint
		loaded, lerr := cli.LoadCheckpoint(cpPath, func(rd io.Reader) error {
			var derr error
			cp, derr = mining.DecodeCheckpoint(rd)
			return derr
		})
		var corrupt *cli.CorruptCheckpointError
		if errors.As(lerr, &corrupt) {
			fmt.Fprintf(textw, "warning: %v; starting fresh\n", corrupt)
			loaded, lerr = false, nil
		}
		if lerr != nil {
			return lerr
		}
		if loaded {
			fmt.Fprintf(textw, "resumed from %s (stage %s)\n", cpPath, cp.Stage)
			ds, stats, next, err = mining.Resume(sys, p, seq, opt, cp)
		} else {
			ds, stats, next, err = mining.OptimizedCheckpoint(sys, p, seq, opt)
		}
		switch {
		case next != nil && next.Stage == mining.StageSteps:
			// A steps-stage checkpoint records no progress: a resume re-runs
			// steps 1-4 and trips the same budget at the same point.
			if loaded && cp.Stage == mining.StageSteps {
				os.Remove(cpPath)
			}
			fmt.Fprintf(textw, "no checkpoint written: steps 1-4 re-run on every start, so only a larger -budget or -timeout gets further\n")
		case next != nil:
			var buf bytes.Buffer
			if serr := next.Encode(&buf); serr != nil {
				return serr
			}
			if serr := store.WriteFileAtomic(store.DirFS{}, cpPath, buf.Bytes()); serr != nil {
				return serr
			}
			fmt.Fprintf(textw, "checkpoint written to %s (stage %s)\n", cpPath, next.Stage)
		case err == nil:
			// The mine finished; a leftover snapshot would resume a done run.
			os.Remove(cpPath)
		}
	default:
		opt.Engine = ef.Config()
		ds, stats, err = mining.Optimized(sys, p, seq, opt)
	}
	var res *cli.MineResult
	if err != nil {
		ii := cli.InterruptedFrom(err)
		if ii == nil {
			return err
		}
		res = &cli.MineResult{Tau: tau, Interrupted: ii}
	} else {
		res, err = cli.BuildMineResult(sys, p, seq, ds, stats, tau, explain, engine.ExecCompiled)
		if err != nil {
			return err
		}
	}
	if jsonOut {
		return res.EncodeJSON(out)
	}
	return res.RenderText(out)
}
