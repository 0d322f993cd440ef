package oracle

import (
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/granularity"
)

// BruteResult is the outcome of the exhaustive bounded-horizon search.
type BruteResult struct {
	// Satisfiable reports whether some assignment of second timestamps in
	// [start, end] satisfies every TCG. Meaningless when Capped.
	Satisfiable bool
	// Witnesses holds up to the requested limit of satisfying assignments.
	Witnesses []map[core.Variable]int64
	// Nodes is the number of partial assignments explored.
	Nodes int64
	// Capped is set when the search exceeded its node budget and was
	// abandoned; the caller must treat the result as unknown.
	Capped bool
}

// BruteConsistency decides bounded-horizon consistency by exhaustive
// backtracking over every second in [start, end] — no propagation, no
// boundary-point discretization, no granule metrics: only TCG.Satisfied.
// It is the ground truth the propagate and exact layers are checked
// against, deliberately sharing no reasoning machinery with them.
func BruteConsistency(sys *granularity.System, s *core.EventStructure, start, end, nodeCap int64, witnessLimit int) BruteResult {
	res := BruteResult{}
	order, err := s.TopoOrder()
	if err != nil {
		// Cyclic: no ordering to search under; report "unknown", not
		// "unsatisfiable" (the propagation layer rejects cycles upstream).
		res.Capped = true
		return res
	}
	if len(order) == 0 {
		res.Satisfiable = true
		return res
	}
	assigned := make(map[core.Variable]int64, len(order))
	var rec func(k int) bool // true = stop (capped or witness limit reached)
	rec = func(k int) bool {
		if k == len(order) {
			res.Satisfiable = true
			if len(res.Witnesses) < witnessLimit {
				w := make(map[core.Variable]int64, len(assigned))
				for v, t := range assigned {
					w[v] = t
				}
				res.Witnesses = append(res.Witnesses, w)
			}
			return len(res.Witnesses) >= witnessLimit
		}
		v := order[k]
		for t := start; t <= end; t++ {
			res.Nodes++
			if res.Nodes > nodeCap {
				res.Capped = true
				return true
			}
			ok := true
			for u, tu := range assigned {
				for _, c := range s.Constraints(u, v) {
					if !c.Satisfied(sys, tu, t) {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
				for _, c := range s.Constraints(v, u) {
					if !c.Satisfied(sys, t, tu) {
						ok = false
						break
					}
				}
				if !ok {
					break
				}
			}
			if !ok {
				continue
			}
			assigned[v] = t
			stop := rec(k + 1)
			delete(assigned, v)
			if stop {
				return true
			}
		}
		return false
	}
	rec(0)
	return res
}

// bruteAnchoredOccurs reports whether the complex type occurs in seq with
// the root bound to seq[refIdx] — the ground truth for one anchored TAG
// run (and hence for one unit of a mining match count). Variables bind
// injectively to event indexes at or after refIdx.
func bruteAnchoredOccurs(sys *granularity.System, ct *core.ComplexType, seq event.Sequence, refIdx int) bool {
	s := ct.Structure
	order, err := s.TopoOrder()
	if err != nil {
		return false
	}
	root, err := s.Root()
	if err != nil {
		return false
	}
	if string(seq[refIdx].Type) != string(ct.Assign[root]) {
		return false
	}
	bound := make(map[core.Variable]int, len(order)) // variable -> event index
	used := make(map[int]bool, len(order))
	check := func(v core.Variable, idx int) bool {
		for u, iu := range bound {
			for _, c := range s.Constraints(u, v) {
				if !c.Satisfied(sys, seq[iu].Time, seq[idx].Time) {
					return false
				}
			}
			for _, c := range s.Constraints(v, u) {
				if !c.Satisfied(sys, seq[idx].Time, seq[iu].Time) {
					return false
				}
			}
		}
		return true
	}
	var rec func(k int) bool
	rec = func(k int) bool {
		if k == len(order) {
			return true
		}
		v := order[k]
		if v == root {
			if used[refIdx] || !check(v, refIdx) {
				return false
			}
			bound[v] = refIdx
			used[refIdx] = true
			if rec(k + 1) {
				return true
			}
			delete(bound, v)
			delete(used, refIdx)
			return false
		}
		for idx := refIdx; idx < len(seq); idx++ {
			if used[idx] || seq[idx].Type != ct.Assign[v] {
				continue
			}
			if !check(v, idx) {
				continue
			}
			bound[v] = idx
			used[idx] = true
			if rec(k + 1) {
				return true
			}
			delete(bound, v)
			delete(used, idx)
		}
		return false
	}
	return rec(0)
}

// bruteOccurrences calls emit once per occurrence of the complex type in
// seq: every injective binding of vars to event indexes of the assigned
// types whose timestamps satisfy every TCG. emit receives the bound
// indexes in vars order, in a slice reused between calls. It is the
// ground truth for the event a TAG run accepts on and the witness it
// reports.
func bruteOccurrences(sys *granularity.System, ct *core.ComplexType, vars []core.Variable, seq event.Sequence, emit func(idx []int)) {
	s := ct.Structure
	idx := make([]int, len(vars))
	used := make([]bool, len(seq))
	fits := func(k, i int) bool {
		v := vars[k]
		for j, u := range vars[:k] {
			tu, t := seq[idx[j]].Time, seq[i].Time
			for _, c := range s.Constraints(u, v) {
				if !c.Satisfied(sys, tu, t) {
					return false
				}
			}
			for _, c := range s.Constraints(v, u) {
				if !c.Satisfied(sys, t, tu) {
					return false
				}
			}
		}
		return true
	}
	var rec func(k int)
	rec = func(k int) {
		if k == len(vars) {
			emit(idx)
			return
		}
		for i, e := range seq {
			if used[i] || e.Type != ct.Assign[vars[k]] || !fits(k, i) {
				continue
			}
			idx[k] = i
			used[i] = true
			rec(k + 1)
			used[i] = false
		}
	}
	rec(0)
}
