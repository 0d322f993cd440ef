// Command tagrun compiles a complex event type into a timed automaton with
// granularities and runs it over an event sequence.
//
// Usage:
//
//	tagrun -spec type.json -seq events.txt [-anchor TYPE] [-print] [-json]
//
// The shared solver flags -timeout, -budget and -stats bound the simulation
// and print the engine counter table; an interrupted scan reports
// INTERRUPTED with the work done so far instead of failing. -json emits the
// canonical JSON result instead of text — the same encoding the tempod
// server uses for TAG session responses.
//
// With -checkpoint FILE (unanchored runs only), an interrupted scan writes a
// resumable snapshot to FILE before exiting, and a later invocation with the
// same flags loads it and continues where the scan stopped — reporting
// acceptance at the same event with the same witness binding as an
// uninterrupted run. The file is removed once the scan completes.
//
// The spec must carry an "assign" map typing every variable. The sequence
// file holds one "<timestamp> <type>" pair per line. Without -anchor, the
// automaton scans the whole sequence once and reports acceptance; with
// -anchor E0, it is started (anchored) at every occurrence of E0 and the
// per-occurrence matches are reported — the paper's frequency counting.
// Anchored runs are independent, so -workers N fans them out to N goroutines
// (default: one per core); the output is byte-identical for any worker count.
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
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/store"
	"repro/internal/tag"
)

func main() {
	specPath := flag.String("spec", "", "path to the complex-type spec JSON")
	seqPath := flag.String("seq", "", "path to the event sequence (default: stdin)")
	anchor := flag.String("anchor", "", "reference type: start an anchored run at each of its occurrences")
	printTAG := flag.Bool("print", false, "print the compiled automaton")
	strict := flag.Bool("strict", false, "use the paper's strict gap semantics")
	grans := flag.String("grans", "", "comma-separated periodic-granularity spec files to register")
	var defines cli.DefineFlags
	defines.Var()
	dot := flag.String("dot", "", "write the compiled automaton as Graphviz DOT to this file")
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

	if err := run(os.Stdout, *specPath, *seqPath, *anchor, *grans, defines, *dot, *checkpoint, *printTAG, *strict, *jsonOut, *workers, ef); err != nil {
		fmt.Fprintln(os.Stderr, "tagrun:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, specPath, seqPath, anchor, gransFlag string, defines []string, dotPath, cpPath string, printTAG, strict, jsonOut bool, workers int, ef *cli.EngineFlags) error {
	eng := ef.Config()
	defer ef.Finish(out)
	sys, err := cli.LoadSystem(gransFlag, defines)
	if err != nil {
		return err
	}
	if specPath == "" {
		return fmt.Errorf("-spec is required")
	}
	f, errOpen := os.Open(specPath)
	if errOpen != nil {
		return errOpen
	}
	sp, err := core.ReadSpec(f)
	f.Close()
	if err != nil {
		return err
	}
	ct, err := sp.ComplexType()
	if err != nil {
		return err
	}
	a, err := tag.Compile(ct)
	if err != nil {
		return err
	}
	// Text mode streams the historical output as the run progresses; JSON
	// mode collects everything into the shared result and emits it once at
	// the end, so incidental notices go nowhere.
	textw := out
	if jsonOut {
		textw = io.Discard
	}
	res := &cli.TagResult{Automaton: cli.AutomatonInfoOf(a)}
	fmt.Fprintf(textw, "TAG: %d states, %d transitions, %d clocks\n",
		res.Automaton.States, res.Automaton.Transitions, res.Automaton.Clocks)
	if printTAG {
		fmt.Fprint(textw, a)
	}
	if dotPath != "" {
		df, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		if err := a.WriteDOT(df, "tag"); err != nil {
			df.Close()
			return err
		}
		if err := df.Close(); err != nil {
			return err
		}
	}

	seq, err := cli.ReadSequence(seqPath)
	if err != nil {
		return err
	}

	if anchor == "" {
		return runStream(out, textw, a, sys, seq, tag.RunOptions{Strict: strict, Engine: eng}, cpPath, jsonOut, res)
	}
	if cpPath != "" {
		return fmt.Errorf("-checkpoint is only supported for unanchored runs (drop -anchor)")
	}

	var refIdx []int
	for i, e := range seq {
		if e.Type == event.Type(anchor) {
			refIdx = append(refIdx, i)
		}
	}
	if len(refIdx) == 0 {
		return fmt.Errorf("anchor type %q does not occur", anchor)
	}
	// The anchored runs are independent jobs; AcceptsBatch fans them out to
	// the worker pool and merges verdicts in reference order, so the output
	// below is byte-identical for every worker count.
	ex := eng.Start()
	verdicts, err := a.AcceptsBatch(ex, sys, seq, refIdx, 0, cli.ResolveWorkers(workers, 0),
		tag.RunOptions{Strict: strict, Engine: eng})
	if err != nil {
		if ii := cli.InterruptedFrom(err); ii != nil {
			res.Interrupted = ii
			return emit(out, textw, res, jsonOut)
		}
		return err
	}
	ar := &cli.AnchoredResult{References: len(refIdx)}
	for slot, ok := range verdicts {
		if ok {
			ar.MatchCount++
			ar.Matches = append(ar.Matches, event.Civil(seq[refIdx[slot]].Time))
		}
	}
	ar.Frequency = float64(ar.MatchCount) / float64(ar.References)
	res.Anchored = ar
	return emit(out, textw, res, jsonOut)
}

// emit finishes the run: JSON mode writes the canonical document to out;
// text mode renders the result body (the TAG header already streamed).
func emit(out, textw io.Writer, res *cli.TagResult, jsonOut bool) error {
	if jsonOut {
		return res.EncodeJSON(out)
	}
	switch {
	case res.Stream != nil:
		return res.Stream.RenderText(textw)
	case res.Anchored != nil:
		return res.Anchored.RenderText(textw)
	case res.Interrupted != nil:
		fmt.Fprintf(textw, "INTERRUPTED (%s) after %d work units\n", res.Interrupted.Reason, res.Interrupted.Steps)
	}
	return nil
}

// runStream drives the unanchored scan as an online Runner so it can be
// checkpointed: if cpPath holds a snapshot the scan resumes from it, and an
// engine interruption writes a fresh snapshot there before reporting.
func runStream(out, textw io.Writer, a *tag.TAG, sys *granularity.System, seq event.Sequence, opt tag.RunOptions, cpPath string, jsonOut bool, res *cli.TagResult) error {
	var r *tag.Runner
	skip := 0
	if cpPath != "" {
		var cp *tag.Checkpoint
		loaded, err := cli.LoadCheckpoint(cpPath, func(rd io.Reader) error {
			var derr error
			cp, derr = tag.DecodeCheckpoint(rd)
			return derr
		})
		var corrupt *cli.CorruptCheckpointError
		if errors.As(err, &corrupt) {
			fmt.Fprintf(textw, "warning: %v; starting fresh\n", corrupt)
			loaded, err = false, nil
		}
		if err != nil {
			return err
		}
		if loaded {
			r, err = tag.RestoreRunner(a, sys, opt, cp)
			if err != nil {
				return err
			}
			skip = cp.Steps
			if skip > len(seq) {
				return fmt.Errorf("checkpoint consumed %d events but the sequence has %d", skip, len(seq))
			}
			fmt.Fprintf(textw, "resumed from %s at event %d\n", cpPath, skip)
		}
	}
	if r == nil {
		r = a.NewRunner(sys, opt)
	}
	var acceptTime int64
	haveAcceptTime := false
	for _, e := range seq[skip:] {
		acc, ok := r.Feed(e)
		if !ok {
			if r.LastReject() == tag.RejectOutOfOrder {
				return fmt.Errorf("event %s %s is out of order", event.Civil(e.Time), e.Type)
			}
			// Interrupted (budget, deadline or fault): persist the snapshot
			// so a rerun picks up at this exact event boundary.
			if cpPath != "" {
				cp, err := r.Snapshot()
				if err != nil {
					return err
				}
				var buf bytes.Buffer
				if err := cp.Encode(&buf); err != nil {
					return err
				}
				if err := store.WriteFileAtomic(store.DirFS{}, cpPath, buf.Bytes()); err != nil {
					return err
				}
				fmt.Fprintf(textw, "checkpoint written to %s at event %d\n", cpPath, cp.Steps)
			}
			if ii := cli.InterruptedFrom(r.Err()); ii != nil {
				res.Interrupted = ii
				return emit(out, textw, res, jsonOut)
			}
			return r.Err()
		}
		if acc {
			acceptTime = e.Time
			haveAcceptTime = true
			break
		}
	}
	res.Stream = cli.StreamResultFromRunner(r, len(seq), acceptTime, haveAcceptTime)
	// The scan ran to a verdict; a leftover snapshot would resume a finished
	// run, so drop it.
	if cpPath != "" {
		os.Remove(cpPath)
	}
	return emit(out, textw, res, jsonOut)
}
