// Command tempofuzz drives the differential oracle: it generates seeded
// random instances (granularity systems, event structures, sequences) and
// cross-checks propagate, exact, TAG and mining against brute-force ground
// truth and against each other (internal/oracle documents the contracts).
//
// Usage:
//
//	tempofuzz [-seeds 500] [-seed-start 1] [-duration 30s] [-workers N]
//	          [-contracts tag,mining] [-repro-dir testdata/oracle]
//	          [-profile cpu.out] [-v]
//
// Seeds run in parallel. On the first contract violation the instance is
// greedily shrunk, persisted as a JSON repro file under -repro-dir, and
// tempofuzz exits 1 with the violation and the repro path; a clean run
// prints per-contract statistics and exits 0. -duration 0 runs exactly
// -seeds seeds; a positive -duration keeps consuming seeds (from
// -seed-start upward, ignoring -seeds) until the clock runs out. An
// unknown -contracts name exits 2 with the list of known contracts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/oracle"
)

func main() {
	var opt options
	flag.Int64Var(&opt.seeds, "seeds", 500, "number of seeds to run (ignored when -duration > 0)")
	flag.Int64Var(&opt.seedStart, "seed-start", 1, "first seed")
	flag.DurationVar(&opt.duration, "duration", 0, "run until this much time has elapsed (0 = run -seeds seeds)")
	flag.IntVar(&opt.workers, "workers", runtime.GOMAXPROCS(0), "parallel seed workers")
	flag.StringVar(&opt.reproDir, "repro-dir", "testdata/oracle", "directory for shrunk repro files")
	flag.StringVar(&opt.profile, "profile", "", "write a CPU profile to this file")
	flag.BoolVar(&opt.verbose, "v", false, "log every seed")
	flag.IntVar(&opt.shrinkChecks, "shrink-checks", 400, "contract evaluations the shrinker may spend")
	contracts := flag.String("contracts", "", "comma-separated contract names to check (default: all); e.g. -contracts tag,mining")
	version := cli.RegisterVersionFlag(flag.CommandLine)
	flag.Parse()
	if *version {
		cli.PrintVersion(os.Stdout)
		return
	}
	opt.knobs = oracle.DefaultKnobs()
	only, err := parseContracts(*contracts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempofuzz:", err)
		os.Exit(2)
	}
	opt.knobs.Only = only

	if opt.profile != "" {
		f, err := os.Create(opt.profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tempofuzz:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tempofuzz:", err)
			os.Exit(2)
		}
		defer pprof.StopCPUProfile()
		defer f.Close()
	}

	rep, err := fuzz(os.Stdout, opt, oracle.Hooks{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempofuzz:", err)
		os.Exit(2)
	}
	if rep != nil {
		os.Exit(1)
	}
}

// parseContracts splits the -contracts list. An unknown name is an error
// that lists the known contracts, so a stale name cannot select nothing
// and pass as a clean run.
func parseContracts(list string) ([]string, error) {
	known := oracle.ContractNames()
	var only []string
	for _, c := range strings.Split(list, ",") {
		if c = strings.TrimSpace(c); c == "" {
			continue
		}
		if !slices.Contains(known, c) {
			return nil, fmt.Errorf("unknown contract %q (known: %s)", c, strings.Join(known, ", "))
		}
		only = append(only, c)
	}
	return only, nil
}

// options configures one fuzzing campaign.
type options struct {
	seeds        int64
	seedStart    int64
	duration     time.Duration
	workers      int
	reproDir     string
	profile      string
	verbose      bool
	shrinkChecks int
	knobs        oracle.Knobs
}

// campaignStats aggregates per-contract run/skip counts across workers.
type campaignStats struct {
	mu      sync.Mutex
	checked int64
	ran     map[string]int64
	skipped map[string]int64
}

func (cs *campaignStats) observe(st oracle.CheckStats) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.checked++
	for _, c := range st.Ran {
		cs.ran[c]++
	}
	for c := range st.Skipped {
		cs.skipped[c]++
	}
}

// fuzz runs the campaign and returns the saved repro of the first
// violation found (nil on a clean run). Only internal failures — not
// contract violations — surface as the error.
func fuzz(out io.Writer, opt options, h oracle.Hooks) (*oracle.Repro, error) {
	if opt.workers < 1 {
		opt.workers = 1
	}
	start := time.Now()
	var deadline time.Time
	if opt.duration > 0 {
		deadline = start.Add(opt.duration)
	}
	stats := &campaignStats{ran: map[string]int64{}, skipped: map[string]int64{}}
	var next atomic.Int64
	next.Store(opt.seedStart)
	var stop atomic.Bool

	type hit struct {
		seed int64
		vs   []oracle.Violation
	}
	var (
		mu    sync.Mutex
		first *hit
	)
	var wg sync.WaitGroup
	for w := 0; w < opt.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				seed := next.Add(1) - 1
				if opt.duration > 0 {
					if time.Now().After(deadline) {
						return
					}
				} else if seed >= opt.seedStart+opt.seeds {
					return
				}
				in := oracle.GenInstance(seed, opt.knobs)
				vs, st, err := oracle.CheckInstance(in, opt.knobs, h)
				if err != nil {
					// Generated instances are well-formed by construction;
					// treat a materialization failure as a violation of the
					// generator itself.
					vs = []oracle.Violation{{Contract: "generator", Detail: err.Error()}}
				}
				stats.observe(st)
				if opt.verbose {
					mu.Lock()
					fmt.Fprintf(out, "seed %d: %d violations, ran %v\n", seed, len(vs), st.Ran)
					mu.Unlock()
				}
				if len(vs) > 0 {
					mu.Lock()
					if first == nil || seed < first.seed {
						first = &hit{seed: seed, vs: vs}
					}
					mu.Unlock()
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()

	if first == nil {
		fmt.Fprintf(out, "tempofuzz: %d seeds clean in %v (workers=%d)\n", stats.checked, time.Since(start).Round(time.Millisecond), opt.workers)
		printStats(out, stats)
		return nil, nil
	}

	v := first.vs[0]
	fmt.Fprintf(out, "tempofuzz: seed %d violates %s\n  %s\n", first.seed, v.Contract, v.Detail)
	in := oracle.GenInstance(first.seed, opt.knobs)
	shrunk := in
	if v.Contract != "generator" {
		fmt.Fprintf(out, "shrinking (up to %d checks)...\n", opt.shrinkChecks)
		shrunk = oracle.Shrink(in, v.Contract, opt.knobs, h, opt.shrinkChecks)
		if svs, _, err := oracle.CheckInstance(shrunk, opt.knobs, h); err == nil {
			for _, sv := range svs {
				if sv.Contract == v.Contract {
					v = sv
					break
				}
			}
		}
	}
	rep := &oracle.Repro{Contract: v.Contract, Detail: v.Detail, Instance: shrunk}
	path, err := oracle.SaveRepro(opt.reproDir, rep)
	if err != nil {
		return nil, fmt.Errorf("saving repro: %w", err)
	}
	nvars := 0
	if shrunk.Spec != nil {
		nvars = len(shrunk.Spec.Variables)
	}
	fmt.Fprintf(out, "shrunk to %d variables, %d events; repro saved to %s\n", nvars, len(shrunk.Seq), path)
	fmt.Fprintf(out, "  %s\n", v.Detail)
	return rep, nil
}

// printStats writes the per-contract run/skip table.
func printStats(out io.Writer, cs *campaignStats) {
	names := make([]string, 0, len(cs.ran))
	seen := map[string]bool{}
	for c := range cs.ran {
		names, seen[c] = append(names, c), true
	}
	for c := range cs.skipped {
		if !seen[c] {
			names = append(names, c)
		}
	}
	sort.Strings(names)
	for _, c := range names {
		fmt.Fprintf(out, "  %-14s ran %6d  skipped %6d\n", c, cs.ran[c], cs.skipped[c])
	}
}
