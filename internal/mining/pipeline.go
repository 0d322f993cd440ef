package mining

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/propagate"
	"repro/internal/tag"
)

// PipelineOptions toggles the optimized pipeline's steps (all enabled by
// default) so the experiments can ablate them.
type PipelineOptions struct {
	DisableConsistencyCheck   bool // step 1
	DisableSequenceReduction  bool // step 2
	DisableReferencePruning   bool // step 3
	DisableCandidateScreening bool // step 4 (k=1)
	DisablePairScreening      bool // step 4 extension (k=2 sub-chains)
	// Workers runs the step-5 TAG scans of different candidates on this
	// many goroutines (candidates are independent; the granularity layer
	// is safe for concurrent use). 0 or 1 means serial; results are
	// identical either way.
	Workers int
	// Engine bounds and observes the pipeline. The zero value is unbounded
	// and silent. Stage timers "mining.step1_consistency" through
	// "mining.step5_scan" cover the five steps; counters report the
	// candidate and reference volumes ("mining.candidates.scanned", ...)
	// plus the inner propagation/TAG work. Exceeding the budget or a
	// cancelled context aborts with engine.ErrInterrupted carrying partial
	// stats. All worker goroutines share the one carrier.
	Engine engine.Config
}

// Optimized solves the problem with the paper's five-step strategy.
func Optimized(sys *granularity.System, p Problem, seq event.Sequence, opt PipelineOptions) ([]Discovery, Stats, error) {
	ex := opt.Engine.Start()
	out, stats, err := optimizedExec(ex, sys, p, seq, opt, nil, nil)
	return out, stats, ex.Seal(err)
}

// scanJob is one step-5 candidate: a full assignment plus — when restored
// from a checkpoint — the scan progress already banked for it.
type scanJob struct {
	full     map[core.Variable]event.Type
	rootType event.Type
	done     bool
	matches  int
	refsDone int
	tagRuns  int
}

// scanResult is a job's cumulative tally after this run's scan pass.
type scanResult struct {
	matches  int
	refsDone int
	tagRuns  int
	done     bool
	err      error
}

// optimizedExec runs the pipeline under an execution carrier. resume, when
// non-nil and at StageScan, replaces step 4 and candidate enumeration with
// the checkpoint's surviving jobs (steps 1-3 are cheap and deterministic and
// always re-run). capture, when non-nil, is filled with resumable state as
// the run progresses so the caller can persist it if the run is interrupted.
func optimizedExec(ex *engine.Exec, sys *granularity.System, p Problem, seq event.Sequence, opt PipelineOptions, resume, capture *Checkpoint) ([]Discovery, Stats, error) {
	root, rest, err := p.validate()
	if err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{SequenceEvents: len(seq)}

	// Step 1: discard inconsistent structures via approximate propagation.
	stop := ex.Stage("mining.step1_consistency")
	prop, err := propagate.RunExec(ex, sys, p.Structure, propagate.Options{})
	stop()
	if err != nil {
		return nil, stats, err
	}
	if !opt.DisableConsistencyCheck && !prop.Consistent {
		stats.Inconsistent = true
		return nil, stats, nil
	}

	// Windows from the root per variable (seconds), for steps 3-5.
	winLo := make(map[core.Variable]int64, len(rest))
	winHi := make(map[core.Variable]int64, len(rest))
	maxHi := int64(0)
	allBounded := true
	for _, v := range rest {
		lo, hi, ok := prop.WindowSeconds(sys, root, v)
		if !ok {
			winHi[v] = infiniteWindow
			allBounded = false
			continue
		}
		winLo[v], winHi[v] = lo, hi
		if hi > maxHi {
			maxHi = hi
		}
	}
	scanWindow := int64(0) // 0 = unbounded suffix
	if allBounded {
		scanWindow = maxHi
	}

	// Step 2: reduce the sequence. An event can bind some variable only if
	// its timestamp is covered by every granularity constraining that
	// variable; events covered by no variable's requirement set can never
	// participate and are dropped. (The paper's example: with only b-day
	// and derived constraints on every variable, non-business-day events
	// are discarded.)
	work := seq
	if !opt.DisableSequenceReduction {
		stop := ex.Stage("mining.step2_reduce")
		if err := ex.Step(int64(len(seq))); err != nil {
			stop()
			return nil, stats, err
		}
		req := requiredGranularities(p.Structure)
		// Resolve each granularity's ticker once — the table-backed TickOf
		// when a periodic table exists — so the per-event loop below is
		// pure arithmetic, no registry lookups.
		tickers := map[string]func(int64) (int64, bool){}
		for _, names := range req {
			for _, name := range names {
				if _, seen := tickers[name]; seen {
					continue
				}
				tick, ok := sys.Ticker(name)
				if !ok {
					tick = nil // unknown granularity: never covered
				}
				tickers[name] = tick
			}
		}
		work = seq.Filter(func(e event.Event) bool {
			for _, names := range req {
				ok := true
				for _, name := range names {
					tick := tickers[name]
					if tick == nil {
						ok = false
						break
					}
					if _, covered := tick(e.Time); !covered {
						ok = false
						break
					}
				}
				if ok {
					return true // usable for at least one variable
				}
			}
			return false
		})
		stop()
	}
	stats.ReducedEvents = len(work)
	index := event.NewIndex(work)

	// The frequency denominator is the reference count in the ORIGINAL
	// sequence: reduction may drop unmatchable reference events, which
	// still count as failures.
	rootPool := p.rootPool()
	totalRefs := 0
	for _, rt := range rootPool {
		totalRefs += seq.CountType(rt)
	}
	stats.ReferenceOccurrences = totalRefs
	if totalRefs == 0 {
		return nil, stats, fmt.Errorf("mining: no reference type occurs")
	}
	refByType := refIndexesByType(work, rootPool)
	var refIdx []int
	for _, rt := range rootPool {
		refIdx = append(refIdx, refByType[rt]...)
	}
	sort.Ints(refIdx)

	// Step 3: prune reference occurrences whose derived windows are empty
	// of events; the automaton can never complete from them.
	if !opt.DisableReferencePruning {
		stop := ex.Stage("mining.step3_refprune")
		keep := func(i int) bool {
			t0 := work[i].Time
			for _, v := range rest {
				hi := winHi[v]
				if hi == infiniteWindow {
					continue
				}
				if len(work.Between(t0+winLo[v], t0+hi)) == 0 {
					return false
				}
			}
			return true
		}
		var kept []int
		for _, i := range refIdx {
			if err := ex.Step(1); err != nil {
				stop()
				return nil, stats, err
			}
			if keep(i) {
				kept = append(kept, i)
			}
		}
		refIdx = kept
		for rt, idx := range refByType {
			var keptT []int
			for _, i := range idx {
				if keep(i) {
					keptT = append(keptT, i)
				}
			}
			refByType[rt] = keptT
		}
		stop()
	}
	stats.ReferencesScanned = len(refIdx)
	ex.Count("mining.refs.scanned", int64(len(refIdx)))

	pools := p.pools(rest, work)
	stats.CandidatesTotal = candidateSpace(rest, pools)

	// A scan-stage checkpoint already carries the step-4 survivors, so the
	// screens and the candidate enumeration are skipped on resume.
	restored := resume != nil && resume.Stage == StageScan

	// Step 4 (k=1): screen candidate types through the induced
	// sub-structures {root, X}. A type E stays in X's pool only if E
	// occurs in X's window for more than τ of the reference occurrences
	// (anti-monotonicity: a frequent full assignment needs a frequent
	// single-variable restriction).
	if !opt.DisableCandidateScreening && len(refIdx) > 0 && !restored {
		stop := ex.Stage("mining.step4_screen")
		for _, v := range rest {
			hi := winHi[v]
			if hi == infiniteWindow {
				continue
			}
			var keep []event.Type
			for _, typ := range pools[v] {
				if err := ex.Step(int64(len(refIdx))); err != nil {
					stop()
					return nil, stats, err
				}
				hits := 0
				for _, i := range refIdx {
					t0 := work[i].Time
					if index.AnyIn(typ, t0+winLo[v], t0+hi) {
						hits++
					}
				}
				if float64(hits)/float64(totalRefs) > p.MinConfidence {
					keep = append(keep, typ)
				} else {
					stats.ScreenedByK1++
				}
			}
			pools[v] = keep
		}
		stop()
	}

	// Step 4 (k=2): screen type pairs through induced sub-chains
	// root -> X -> Y. A pair (E,F) is admissible only if, for more than τ
	// of the references, some E event in X's window has an F event within
	// the derived (X,Y) window after it.
	banned := make(map[pairKey]bool)
	if !opt.DisablePairScreening && len(refIdx) > 0 && !restored {
		stop := ex.Stage("mining.step4_screen")
		for _, x := range rest {
			if winHi[x] == infiniteWindow {
				continue
			}
			for _, y := range rest {
				if x == y || !p.Structure.HasPath(x, y) {
					continue
				}
				lo2, hi2, ok := prop.WindowSeconds(sys, x, y)
				if !ok {
					continue
				}
				for _, tx := range pools[x] {
					for _, ty := range pools[y] {
						if err := ex.Step(int64(len(refIdx))); err != nil {
							stop()
							return nil, stats, err
						}
						hits := 0
						for _, i := range refIdx {
							t0 := work[i].Time
							if pairWitness(index, t0+winLo[x], t0+winHi[x], tx, lo2, hi2, ty) {
								hits++
							}
						}
						if float64(hits)/float64(totalRefs) <= p.MinConfidence {
							banned[pairKey{x, y, tx, ty}] = true
							stats.ScreenedByK2++
						}
					}
				}
			}
		}
		stop()
	}

	if len(refIdx) == 0 && !restored {
		return nil, stats, nil // every reference was pruned; nothing can match
	}

	// Step 5: the naive TAG scan over the surviving candidates and
	// references, with the scan window bounding each suffix. The chain
	// cover depends only on the structure, so it is computed once and the
	// per-candidate compilation just relabels symbols.
	chains, err := tag.Chains(p.Structure)
	if err != nil {
		return nil, stats, err
	}
	baseTAG, err := tag.FromChains(p.Structure, chains, nil)
	if err != nil {
		return nil, stats, err
	}
	// Collect the admissible full assignments (or restore them from the
	// checkpoint), then scan them serially or on a worker pool.
	var jobs []scanJob
	if restored {
		stats.ScreenedByK1 = resume.ScreenedByK1
		stats.ScreenedByK2 = resume.ScreenedByK2
		jobs, err = resume.restoreJobs(&p, root, refByType)
		if err != nil {
			return nil, stats, err
		}
	} else {
		err = enumerate(rest, pools, func(assign map[core.Variable]event.Type) error {
			if err := ex.Step(1); err != nil {
				return err
			}
			for key := range banned {
				if assign[key.x] == key.ex && assign[key.y] == key.ey {
					return nil
				}
			}
			for _, rootType := range rootPool {
				full := make(map[core.Variable]event.Type, len(assign)+1)
				for k, v := range assign {
					full[k] = v
				}
				full[root] = rootType
				if !p.typeConstraintsOK(full) {
					continue
				}
				jobs = append(jobs, scanJob{full: full, rootType: rootType})
			}
			return nil
		})
		if err != nil {
			return nil, stats, err
		}
	}
	stats.CandidatesScanned = len(jobs)
	ex.Count("mining.candidates.scanned", int64(len(jobs)))
	ex.Count("mining.screened.k1", int64(stats.ScreenedByK1))
	ex.Count("mining.screened.k2", int64(stats.ScreenedByK2))
	if capture != nil {
		capture.Stage = StageScan
		capture.ScreenedByK1 = stats.ScreenedByK1
		capture.ScreenedByK2 = stats.ScreenedByK2
	}

	results := make([]scanResult, len(jobs))
	scanOne := func(i int) {
		j := jobs[i]
		if j.done {
			results[i] = scanResult{matches: j.matches, refsDone: j.refsDone, tagRuns: j.tagRuns, done: true}
			return
		}
		refs := refByType[j.rootType]
		a := baseTAG.Relabel(j.full)
		m, rd, err := countMatchesExec(ex, sys, a, work, refs[j.refsDone:], scanWindow, &results[i].tagRuns)
		results[i].matches = j.matches + m
		results[i].refsDone = j.refsDone + rd
		results[i].tagRuns += j.tagRuns
		results[i].err = err
		results[i].done = err == nil
	}
	defer ex.Stage("mining.step5_scan")()
	workers := opt.Workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			scanOne(i)
		}
	} else {
		// Dynamic sharding off one atomic cursor: no feeder goroutine, no
		// channel handoff per job, and a worker that hits a long candidate
		// never blocks the others from draining the tail. Every job index is
		// claimed exactly once, and jobs keep being visited after an
		// interruption trips the shared carrier — countMatchesExec fails fast
		// then, but scanOne still records the banked progress restored from a
		// checkpoint, so the captured checkpoint never loses work.
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(jobs) {
						return
					}
					scanOne(i)
				}
			}()
		}
		wg.Wait()
	}
	var out []Discovery
	for i, r := range results {
		if r.err != nil {
			if capture != nil {
				capture.Jobs = checkpointJobs(jobs, results)
			}
			return nil, stats, r.err
		}
		stats.TagRuns += r.tagRuns
		freq := float64(r.matches) / float64(totalRefs)
		if freq > p.MinConfidence {
			out = append(out, Discovery{Assign: jobs[i].full, Matches: r.matches, Frequency: freq})
		}
	}
	sortDiscoveries(out)
	return out, stats, nil
}

type pairKey struct {
	x, y   core.Variable
	ex, ey event.Type
}

// pairWitness reports whether the window [xlo,xhi] holds an ex event with
// an ey event in [t+lo2, t+hi2] after it.
func pairWitness(index *event.Index, xlo, xhi int64, ex event.Type, lo2, hi2 int64, ey event.Type) bool {
	for _, tx := range index.In(ex, xlo, xhi) {
		if index.AnyIn(ey, tx+lo2, tx+hi2) {
			return true
		}
	}
	return false
}

// requiredGranularities returns, per variable, the granularity names of the
// TCGs on arcs incident to it: any event bound to the variable must be
// covered by each of them.
func requiredGranularities(s *core.EventStructure) map[core.Variable][]string {
	out := make(map[core.Variable][]string, s.NumVariables())
	add := func(v core.Variable, g string) {
		for _, x := range out[v] {
			if x == g {
				return
			}
		}
		out[v] = append(out[v], g)
	}
	for _, v := range s.Variables() {
		out[v] = nil
	}
	for _, e := range s.Edges() {
		for _, c := range e.TCGs {
			add(e.From, c.Gran)
			add(e.To, c.Gran)
		}
	}
	return out
}
