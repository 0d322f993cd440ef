// Package exact decides consistency of event structures with multiple
// granularities by exhaustive, propagation-pruned backtracking over a
// bounded time horizon. The problem is NP-hard (the paper's Theorem 1), so
// this solver is meant for ground truth on small instances — the
// disjunction gadget of Figure 1(b), the SUBSET-SUM reduction instances —
// and as the exact comparator the experiments measure the approximate
// propagation against.
//
// Completeness within the horizon rests on a discretization argument: if a
// matching complex event exists with timestamps inside the horizon, one
// exists with every timestamp on a granule-interval boundary. Snapping each
// timestamp down to the latest interval start (over all granularities in
// the structure) at or before it keeps the timestamp inside the same
// interval of the same granule of every granularity, so every cover — and
// hence every TCG — is preserved. The search therefore enumerates only
// boundary points.
package exact

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/granularity"
	"repro/internal/propagate"
	"repro/internal/stp"
)

// Options configures Solve.
type Options struct {
	// Start and End bound the candidate timestamps (second indices,
	// inclusive). Required: End > Start >= 1.
	Start, End int64
	// MaxNodes bounds the number of search-tree nodes expanded; Solve
	// errors when exceeded. 0 means DefaultMaxNodes.
	MaxNodes int64
	// Propagate configures the pruning propagation pass Solve and
	// Enumerate run first. Its Engine field is ignored — the exact solver's
	// own Engine governs the whole solve, propagation included.
	Propagate propagate.Options
	// Engine carries cancellation, the work budget (one unit per search
	// node plus the propagation work beneath) and the observer
	// ("exact.nodes", "exact.prunes"). The zero value is unbounded and
	// silent; MaxNodes still applies either way.
	Engine engine.Config
}

// DefaultMaxNodes is the default search budget.
const DefaultMaxNodes = 20_000_000

// Verdict is the outcome of an exact consistency check.
type Verdict struct {
	// Satisfiable reports whether a matching complex event exists with all
	// timestamps inside the horizon.
	Satisfiable bool
	// Witness maps each variable to a timestamp when Satisfiable.
	Witness map[core.Variable]int64
	// Nodes is the number of search nodes expanded.
	Nodes int64
	// RefutedByPropagation is set when the approximate propagation already
	// proved inconsistency and no search ran.
	RefutedByPropagation bool
}

// Solve decides bounded-horizon consistency of s under sys.
func Solve(sys *granularity.System, s *core.EventStructure, opt Options) (*Verdict, error) {
	ex := opt.Engine.Start()
	v, err := solveExec(ex, sys, s, opt)
	return v, ex.Seal(err)
}

func solveExec(ex *engine.Exec, sys *granularity.System, s *core.EventStructure, opt Options) (*Verdict, error) {
	sv, err := newSolver(ex, sys, s, opt)
	if err != nil {
		return nil, err
	}
	if sv == nil {
		return &Verdict{Satisfiable: false, RefutedByPropagation: true}, nil
	}
	var witness map[core.Variable]int64
	err = sv.run("exact.search", func(w map[core.Variable]int64) bool {
		witness = w
		return false
	})
	if err != nil {
		return nil, err
	}
	return &Verdict{Satisfiable: witness != nil, Witness: witness, Nodes: sv.nodes}, nil
}

// newSolver validates the horizon, runs the pruning propagation and sets
// up the search over the horizon's boundary points. It returns a nil
// solver when propagation refutes s.
func newSolver(ex *engine.Exec, sys *granularity.System, s *core.EventStructure, opt Options) (*solver, error) {
	if opt.Start < 1 || opt.End <= opt.Start {
		return nil, fmt.Errorf("exact: invalid horizon [%d,%d]", opt.Start, opt.End)
	}
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}
	prop, err := propagate.RunExec(ex, sys, s, opt.Propagate)
	if err != nil {
		return nil, err
	}
	if !prop.Consistent {
		return nil, nil
	}
	points := boundaryPoints(sys, s.Granularities(), opt.Start, opt.End)
	order, err := s.TopoOrder()
	if err != nil {
		return nil, err
	}
	sv := &solver{
		sys:      sys,
		s:        s,
		prop:     prop,
		points:   points,
		order:    order,
		assigned: make([]int64, len(order)),
		maxNodes: maxNodes,
		ex:       ex,
	}
	sv.precomputeBounds()
	return sv, nil
}

// boundaryPoints collects the sorted, deduplicated starts of every granule
// interval of the named granularities intersecting [start, end].
func boundaryPoints(sys *granularity.System, grans []string, start, end int64) []int64 {
	// The horizon start is always a candidate: a structure whose TCGs
	// reference no granularity (or whose granules all lie outside the
	// horizon) still needs a point to assign, and the snap-down argument
	// already clamps below-horizon interval starts to start.
	set := map[int64]bool{start: true}
	for _, name := range grans {
		g := sys.MustGet(name)
		for z := granularity.FirstTouching(g, start); ; z++ {
			ivs, ok := g.Intervals(z)
			if !ok {
				break
			}
			if len(ivs) == 0 || ivs[0].First > end {
				break
			}
			for _, iv := range ivs {
				if iv.First <= end && iv.Last >= start {
					p := iv.First
					if p < start {
						p = start
					}
					set[p] = true
				}
			}
		}
	}
	out := make([]int64, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

type solver struct {
	sys    *granularity.System
	s      *core.EventStructure
	prop   *propagate.Result
	points []int64
	order  []core.Variable
	// assigned[k] is order[k]'s timestamp; entries k and beyond are stale
	// while the search assigns order[k].
	assigned []int64
	// emit receives each full assignment in search order; false stops
	// the search.
	emit     func(map[core.Variable]int64) bool
	nodes    int64
	maxNodes int64
	// ex meters the search against the engine budget/deadline; nil means
	// unbounded.
	ex *engine.Exec
	// prunes counts dead branches (empty windows, constraint rejections);
	// flushed counters track the already-reported node/prune totals.
	prunes                     int64
	flushedNodes, flushedPrune int64
	// bounds[i][j] are the second-distance bounds from order[i] to order[j]
	// derived by propagation (j < i used during search).
	lo, hi [][]int64
}

// flushCounters reports the not-yet-reported node and prune totals to the
// observer; called periodically and on the way out so interrupted solves
// still carry partial stats.
func (sv *solver) flushCounters() {
	sv.ex.Count("exact.nodes", sv.nodes-sv.flushedNodes)
	sv.ex.Count("exact.prunes", sv.prunes-sv.flushedPrune)
	sv.flushedNodes, sv.flushedPrune = sv.nodes, sv.prunes
}

func (sv *solver) precomputeBounds() {
	n := len(sv.order)
	sv.lo = make([][]int64, n)
	sv.hi = make([][]int64, n)
	for i := range sv.order {
		sv.lo[i] = make([]int64, n)
		sv.hi[i] = make([]int64, n)
		for j := range sv.order {
			if i == j {
				continue
			}
			l, h := sv.prop.SecondBounds(sv.sys, sv.order[i], sv.order[j])
			sv.lo[i][j], sv.hi[i][j] = l, h
		}
	}
}

// run searches under the named stage timer, handing each full assignment
// to emit until it returns false.
func (sv *solver) run(stage string, emit func(map[core.Variable]int64) bool) error {
	defer sv.ex.Stage(stage)()
	sv.emit = emit
	_, err := sv.search(0)
	sv.flushCounters()
	return err
}

// search assigns order[k..]; it reports whether emit stopped the search.
func (sv *solver) search(k int) (bool, error) {
	if k == len(sv.order) {
		w := make(map[core.Variable]int64, len(sv.order))
		for i, v := range sv.order {
			w[v] = sv.assigned[i]
		}
		return !sv.emit(w), nil
	}
	// Intersect the windows implied by every assigned variable.
	winLo, winHi := sv.points[0], sv.points[len(sv.points)-1]
	for j := 0; j < k; j++ {
		tj := sv.assigned[j]
		if l := sv.lo[j][k]; l > -stp.Inf {
			if nl := tj + l; nl > winLo {
				winLo = nl
			}
		}
		if h := sv.hi[j][k]; h < stp.Inf {
			if nh := tj + h; nh < winHi {
				winHi = nh
			}
		}
	}
	if winLo > winHi {
		sv.prunes++
		return false, nil
	}
	first := sort.Search(len(sv.points), func(i int) bool { return sv.points[i] >= winLo })
	for i := first; i < len(sv.points) && sv.points[i] <= winHi; i++ {
		sv.nodes++
		if sv.nodes > sv.maxNodes {
			return false, fmt.Errorf("exact: search budget of %d nodes exceeded", sv.maxNodes)
		}
		if err := sv.ex.Step(1); err != nil {
			return false, err
		}
		t := sv.points[i]
		if !sv.consistentWithAssigned(k, t) {
			sv.prunes++
			continue
		}
		sv.assigned[k] = t
		if stopped, err := sv.search(k + 1); stopped || err != nil {
			return stopped, err
		}
	}
	return false, nil
}

// consistentWithAssigned checks every explicit TCG between order[k] at t
// and the variables assigned before it, in topological order.
func (sv *solver) consistentWithAssigned(k int, t int64) bool {
	v := sv.order[k]
	for j, tu := range sv.assigned[:k] {
		u := sv.order[j]
		for _, c := range sv.s.Constraints(u, v) {
			if !c.Satisfied(sv.sys, tu, t) {
				return false
			}
		}
		for _, c := range sv.s.Constraints(v, u) {
			if !c.Satisfied(sv.sys, t, tu) {
				return false
			}
		}
	}
	return true
}

// Enumerate returns up to limit distinct satisfying assignments (boundary
// witnesses) of the structure within the horizon, in the search's
// deterministic order. It runs Solve's search but continues past the
// first witness. Distinctness is per boundary-point assignment; the full
// (uncountable in general) solution space collapses onto boundary points by
// the same snapping argument Solve's completeness rests on.
func Enumerate(sys *granularity.System, s *core.EventStructure, opt Options, limit int) ([]map[core.Variable]int64, error) {
	ex := opt.Engine.Start()
	out, err := enumerateExec(ex, sys, s, opt, limit)
	return out, ex.Seal(err)
}

func enumerateExec(ex *engine.Exec, sys *granularity.System, s *core.EventStructure, opt Options, limit int) ([]map[core.Variable]int64, error) {
	if limit < 1 {
		return nil, fmt.Errorf("exact: limit must be positive")
	}
	sv, err := newSolver(ex, sys, s, opt)
	if sv == nil || err != nil {
		return nil, err
	}
	var out []map[core.Variable]int64
	err = sv.run("exact.enumerate", func(w map[core.Variable]int64) bool {
		out = append(out, w)
		return len(out) < limit
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
