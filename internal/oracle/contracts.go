package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/exact"
	"repro/internal/granularity"
	"repro/internal/mining"
	"repro/internal/propagate"
	"repro/internal/store"
	"repro/internal/tag"
)

// Hooks lets tests swap a layer's primitive for a deliberately broken one
// to prove the oracle detects the breakage (the "kill the mutant" check).
// Zero value = the real implementations.
type Hooks struct {
	// ConvertInterval converts a source granule-difference interval to the
	// target granularity, as propagate's Figure-3 Converter does. nil uses
	// propagate.NewConverter(sys, src, dst).Interval(lo, hi).
	ConvertInterval func(sys *granularity.System, src, dst string, lo, hi int64) (int64, int64)
}

func (h Hooks) convert(sys *granularity.System, src, dst string, lo, hi int64) (int64, int64) {
	if h.ConvertInterval != nil {
		return h.ConvertInterval(sys, src, dst, lo, hi)
	}
	return propagate.NewConverter(sys, src, dst).Interval(lo, hi)
}

// CheckStats records which contracts ran on an instance and which were
// skipped (with the reason) — skips are counted, never silent.
type CheckStats struct {
	Ran     []string
	Skipped map[string]string
}

func (cs *CheckStats) ran(c string)          { cs.Ran = append(cs.Ran, c) }
func (cs *CheckStats) skip(c, why string)    { cs.Skipped[c] = why }
func (cs *CheckStats) skipped(c string) bool { _, ok := cs.Skipped[c]; return ok }

// CheckInstance evaluates every contract on the instance and returns the
// violations. A non-nil error means the instance itself is malformed
// (unbuildable granularity or structure) — generated instances never are,
// but shrinking mutations can be, and the shrinker must treat that as "the
// violation did not reproduce", not as a pass.
func CheckInstance(in *Instance, k Knobs, h Hooks) ([]Violation, CheckStats, error) {
	stats := CheckStats{Skipped: map[string]string{}}
	sys, err := in.System()
	if err != nil {
		return nil, stats, err
	}
	s, err := in.Structure()
	if err != nil {
		return nil, stats, err
	}
	if in.HorizonStart < 1 || in.HorizonEnd <= in.HorizonStart {
		return nil, stats, fmt.Errorf("oracle: invalid horizon [%d,%d]", in.HorizonStart, in.HorizonEnd)
	}
	prop, err := propagate.Run(sys, s, propagate.Options{})
	if err != nil {
		return nil, stats, fmt.Errorf("oracle: propagate: %w", err)
	}
	var brute BruteResult
	if k.enabled(ContractConsistency) || k.enabled(ContractDerivedBound) {
		brute = BruteConsistency(sys, s, in.HorizonStart, in.HorizonEnd, k.BruteCap, 24)
	}

	var vs []Violation
	add := func(contract, format string, args ...any) {
		vs = append(vs, Violation{Contract: contract, Detail: fmt.Sprintf(format, args...)})
	}
	gate := func(contract string, run func()) {
		if !k.enabled(contract) {
			stats.skip(contract, "filtered by Only")
			return
		}
		run()
	}

	gate(ContractConsistency, func() { checkConsistency(in, k, sys, s, prop, brute, &stats, add) })
	gate(ContractDerivedBound, func() { checkDerivedBounds(in, sys, s, prop, brute, &stats, add) })
	gate(ContractConversion, func() { checkConversion(in, h, sys, s, &stats, add) })
	gate(ContractDistinction, func() { checkDistinction(in, sys, &stats, add) })
	gate(ContractTAG, func() { checkTAG(in, sys, &stats, add) })
	gate(ContractMining, func() { checkMining(in, k, sys, s, &stats, add) })
	gate(ContractStoreReplay, func() { checkStoreReplay(in, sys, &stats, add) })
	gate(ContractIncrementalEquiv, func() { checkIncrementalEquiv(in, k, sys, s, &stats, add) })
	gate(ContractClusterRebalance, func() { checkClusterRebalance(in, sys, &stats, add) })
	return vs, stats, nil
}

// checkConsistency cross-checks the three consistency deciders:
// brute-force enumeration (ground truth within the horizon), the exact
// solver over the same horizon, and approximate propagation (sound for
// inconsistency, Theorem 2).
func checkConsistency(in *Instance, k Knobs, sys *granularity.System, s *core.EventStructure,
	prop *propagate.Result, brute BruteResult, stats *CheckStats, add func(string, string, ...any)) {

	v, exErr := exact.Solve(sys, s, exact.Options{
		Start: in.HorizonStart, End: in.HorizonEnd, MaxNodes: k.ExactMaxNodes,
	})
	if exErr != nil && brute.Capped {
		stats.skip(ContractConsistency, "exact and brute both exceeded their budgets")
		return
	}
	stats.ran(ContractConsistency)

	// Propagation claims inconsistency over ALL timelines; a bounded-horizon
	// witness from either decider refutes that claim.
	if !prop.Consistent {
		if exErr == nil && v.Satisfiable {
			add(ContractConsistency, "propagate refuted the structure but exact found witness %v", v.Witness)
		}
		if !brute.Capped && brute.Satisfiable {
			add(ContractConsistency, "propagate refuted the structure but brute force found witness %v", brute.Witnesses[0])
		}
	}
	// Exact vs brute over the identical horizon must agree outright (the
	// boundary-point discretization argument).
	if exErr == nil && !brute.Capped && v.Satisfiable != brute.Satisfiable {
		add(ContractConsistency, "exact says satisfiable=%v, brute force says %v over [%d,%d]",
			v.Satisfiable, brute.Satisfiable, in.HorizonStart, in.HorizonEnd)
	}
	// An exact witness must really satisfy every TCG.
	if exErr == nil && v.Satisfiable {
		if bad, u, w, c := witnessViolation(sys, s, v.Witness); bad {
			add(ContractConsistency, "exact witness %v violates %v on (%s,%s)", v.Witness, c, u, w)
		}
	}
}

// witnessViolation scans a full assignment for a violated constraint.
func witnessViolation(sys *granularity.System, s *core.EventStructure, w map[core.Variable]int64) (bool, core.Variable, core.Variable, core.TCG) {
	for u, tu := range w {
		for v, tv := range w {
			for _, c := range s.Constraints(u, v) {
				if !c.Satisfied(sys, tu, tv) {
					return true, u, v, c
				}
			}
		}
	}
	return false, "", "", core.TCG{}
}

// checkDerivedBounds asserts propagation soundness pointwise: every
// brute-force witness satisfies every bound propagation derived, including
// the implicit claim that the covers at both endpoints are defined (every
// seeded TCG requires definedness, and conversions only run along
// cover-feasible pairs, so definedness survives the fixpoint).
func checkDerivedBounds(in *Instance, sys *granularity.System, s *core.EventStructure,
	prop *propagate.Result, brute BruteResult, stats *CheckStats, add func(string, string, ...any)) {

	if brute.Capped {
		stats.skip(ContractDerivedBound, "brute force exceeded its node budget")
		return
	}
	if len(brute.Witnesses) == 0 {
		stats.skip(ContractDerivedBound, "no witnesses in the horizon")
		return
	}
	stats.ran(ContractDerivedBound)
	vars := prop.Variables()
	for _, w := range brute.Witnesses {
		for _, u := range vars {
			for _, v := range vars {
				if u == v {
					continue
				}
				for _, b := range prop.DerivedBounds(u, v) {
					g := sys.MustGet(b.Gran)
					zu, okU := g.TickOf(w[u])
					zv, okV := g.TickOf(w[v])
					if !okU || !okV {
						add(ContractDerivedBound, "bound %v on (%s,%s) but cover undefined at witness (%d,%d)",
							b, u, v, w[u], w[v])
						return
					}
					d := zv - zu
					if (!b.LoOpen && d < b.Lo) || (!b.HiOpen && d > b.Hi) {
						add(ContractDerivedBound, "witness %v has %s-diff %d on (%s,%s), outside derived %v",
							w, b.Gran, d, u, v, b)
						return
					}
				}
			}
		}
	}
}

// convInterval is a source interval the conversion contract feeds through
// the Figure-3 converter.
type convInterval struct{ lo, hi int64 }

// achievedDiff is one realized pair of granule differences for an ordered
// timestamp pair (t1 <= t2) in the horizon: the source difference, and the
// destination difference when the destination covers both endpoints.
type achievedDiff struct {
	src   int64
	dstOK bool
	dst   int64
}

// checkConversion validates the granularity conversions against direct
// enumeration: for every cover-feasible ordered pair of granularities and
// every test interval, each timestamp pair realizing a source difference
// inside the interval must (a) have its destination covers defined — the
// feasibility gate's promise — and (b) realize a destination difference
// inside the converted interval. When the reverse direction is feasible
// too, the round trip src→dst→src must still contain the source
// difference: round trips only widen.
func checkConversion(in *Instance, h Hooks, sys *granularity.System, s *core.EventStructure,
	stats *CheckStats, add func(string, string, ...any)) {

	names := sys.Names()
	sort.Strings(names)

	covers := map[string][]int64{}
	defined := map[string][]bool{}
	span := in.HorizonEnd - in.HorizonStart + 1
	for _, name := range names {
		g := sys.MustGet(name)
		cs, ds := make([]int64, span), make([]bool, span)
		for t := in.HorizonStart; t <= in.HorizonEnd; t++ {
			cs[t-in.HorizonStart], ds[t-in.HorizonStart] = g.TickOf(t)
		}
		covers[name], defined[name] = cs, ds
	}

	intervals := []convInterval{{0, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 3}, {2, 2}, {-1, 1}, {-2, 0}}
	for _, e := range s.Edges() {
		for _, c := range e.TCGs {
			intervals = append(intervals, convInterval{c.Min, c.Max})
		}
	}

	ranAny := false
	for _, src := range names {
		for _, dst := range names {
			if src == dst || !sys.ConversionFeasible(src, dst) {
				continue
			}
			ranAny = true
			// Deduplicate the realized difference pairs once per (src, dst).
			seen := map[achievedDiff]bool{}
			var achieved []achievedDiff
			for i := int64(0); i < span; i++ {
				if !defined[src][i] {
					continue
				}
				for j := i; j < span; j++ {
					if !defined[src][j] {
						continue
					}
					a := achievedDiff{src: covers[src][j] - covers[src][i]}
					if defined[dst][i] && defined[dst][j] {
						a.dstOK, a.dst = true, covers[dst][j]-covers[dst][i]
					}
					if !seen[a] {
						seen[a] = true
						achieved = append(achieved, a)
					}
				}
			}
			back := sys.ConversionFeasible(dst, src)
			for _, iv := range intervals {
				nlo, nhi := h.convert(sys, src, dst, iv.lo, iv.hi)
				var rlo, rhi int64
				if back {
					rlo, rhi = h.convert(sys, dst, src, nlo, nhi)
				}
				for _, a := range achieved {
					if a.src < iv.lo || a.src > iv.hi {
						continue
					}
					if !a.dstOK {
						add(ContractConversion, "%s→%s is cover-feasible but a pair with %s-diff %d has undefined %s covers",
							src, dst, src, a.src, dst)
						return
					}
					if a.dst < nlo || a.dst > nhi {
						add(ContractConversion, "[%d,%d]%s converts to [%d,%d]%s but a realized pair has %s-diff %d with %s-diff %d",
							iv.lo, iv.hi, src, nlo, nhi, dst, src, a.src, dst, a.dst)
						return
					}
					if back && (a.src < rlo || a.src > rhi) {
						add(ContractConversion, "round trip [%d,%d]%s → [%d,%d]%s → [%d,%d]%s excludes realized %s-diff %d",
							iv.lo, iv.hi, src, nlo, nhi, dst, rlo, rhi, src, src, a.src)
						return
					}
				}
			}
		}
	}
	if !ranAny {
		stats.skip(ContractConversion, "no cover-feasible granularity pair in the horizon")
		return
	}
	stats.ran(ContractConversion)
}

// checkDistinction asserts the paper's motivating distinction ("[0,0]day is
// not [0,86399]second"): for each custom granularity, find two pairs of
// adjacent seconds with identical second distance — one inside a granule,
// one straddling a boundary. [0,0]g must accept the first and reject the
// second, which no pure second-window constraint can do.
func checkDistinction(in *Instance, sys *granularity.System, stats *CheckStats, add func(string, string, ...any)) {
	ranAny := false
	for _, name := range in.granNames() {
		g, ok := sys.Get(name)
		if !ok {
			continue
		}
		var within, straddle [2]int64
		haveW, haveS := false, false
		for t := in.HorizonStart; t < in.HorizonEnd; t++ {
			z1, ok1 := g.TickOf(t)
			z2, ok2 := g.TickOf(t + 1)
			if !ok1 || !ok2 {
				continue
			}
			switch {
			case z1 == z2 && !haveW:
				within, haveW = [2]int64{t, t + 1}, true
			case z2 == z1+1 && !haveS:
				straddle, haveS = [2]int64{t, t + 1}, true
			}
			if haveW && haveS {
				break
			}
		}
		if !haveW || !haveS {
			continue // e.g. gapped granularities have no adjacent straddle
		}
		ranAny = true
		c := core.TCG{Min: 0, Max: 0, Gran: name}
		if !c.Satisfied(sys, within[0], within[1]) {
			add(ContractDistinction, "[0,0]%s rejects the within-granule pair (%d,%d)", name, within[0], within[1])
			return
		}
		if c.Satisfied(sys, straddle[0], straddle[1]) {
			add(ContractDistinction, "[0,0]%s accepts the straddling pair (%d,%d)", name, straddle[0], straddle[1])
			return
		}
		// Both pairs are 1 second apart, so every [m,n]second constraint
		// gives the same verdict on both — the distinction is real.
		sec := core.TCG{Min: 1, Max: 1, Gran: "second"}
		if sec.Satisfied(sys, within[0], within[1]) != sec.Satisfied(sys, straddle[0], straddle[1]) {
			add(ContractDistinction, "[1,1]second separates equal-distance pairs (%d,%d) and (%d,%d)",
				within[0], within[1], straddle[0], straddle[1])
			return
		}
	}
	if !ranAny {
		stats.skip(ContractDistinction, "no granularity with both within and straddling adjacent pairs")
		return
	}
	stats.ran(ContractDistinction)
}

// checkTAG asserts Theorem-3 equivalence and execution-mode determinism:
// batch acceptance equals brute-force occurrence search, the batch run
// accepts on the event where the earliest brute-force occurrence completes
// and reports the smallest occurrence completing there as its witness, the
// streaming Runner accepts on the same event with the same binding and the
// same tag.* counter totals, a mid-stream checkpoint-resume (through the
// codec) is byte-identical to the uninterrupted run, and anchored batches
// merge identically at any worker count.
func checkTAG(in *Instance, sys *granularity.System, stats *CheckStats, add func(string, string, ...any)) {
	ct, err := in.ComplexType()
	if err != nil {
		stats.skip(ContractTAG, "no total complex type: "+err.Error())
		return
	}
	a, err := tag.Compile(ct)
	if err != nil {
		stats.skip(ContractTAG, "not compilable: "+err.Error())
		return
	}
	if len(in.Seq) == 0 {
		stats.skip(ContractTAG, "empty sequence")
		return
	}
	stats.ran(ContractTAG)

	want := core.OccursBrute(sys, ct, in.Seq)
	got, _ := a.Accepts(sys, in.Seq, tag.RunOptions{})
	if got != want {
		add(ContractTAG, "Accepts=%v but brute-force occurrence search says %v", got, want)
		return
	}

	// Batch witness search against every brute-force occurrence: the run
	// accepts on the earliest event at which an occurrence completes, and
	// its witness is the smallest occurrence completing there.
	vars := append([]core.Variable(nil), ct.Structure.Variables()...)
	slices.Sort(vars)
	var first []int
	firstAt := -1
	bruteOccurrences(sys, ct, vars, in.Seq, func(idx []int) {
		at := slices.Max(idx)
		if first == nil || at < firstAt || at == firstAt && slices.Compare(idx, first) < 0 {
			first, firstAt = append(first[:0], idx...), at
		}
	})
	batchCnt := engine.NewCounters()
	w, ok, rs := a.FindOccurrence(sys, in.Seq, tag.RunOptions{Engine: engine.Config{Observer: batchCnt}})
	if ok != want || (first != nil) != want {
		add(ContractTAG, "FindOccurrence=%v and occurrence enumeration found %v, but brute-force occurrence search says %v",
			ok, first != nil, want)
		return
	}
	if ok {
		if rs.AcceptedAt != firstAt {
			add(ContractTAG, "FindOccurrence accepted at event %d, the earliest brute-force occurrence %v completes at %d", rs.AcceptedAt, first, firstAt)
			return
		}
		minimal := make(map[string]int, len(vars))
		for i, v := range vars {
			minimal[string(v)] = first[i]
		}
		if d := diffBindings(w, minimal); d != "" {
			add(ContractTAG, "FindOccurrence witness %v is not the smallest occurrence %v completing at event %d (%s)", w, minimal, firstAt, d)
			return
		}
	}

	// Streaming Runner fed the same events: same verdict, accepting event,
	// binding and tag.* counter totals as the batch run.
	streamCnt := engine.NewCounters()
	r := a.NewRunner(sys, tag.RunOptions{Engine: engine.Config{Observer: streamCnt}})
	for _, e := range in.Seq {
		if _, ok := r.Feed(e); !ok {
			add(ContractTAG, "Runner refused event %v: %v", e, r.LastReject())
			return
		}
	}
	if r.Accepted() != want {
		add(ContractTAG, "Runner accepted=%v but brute-force occurrence search says %v", r.Accepted(), want)
		return
	}
	if want {
		if r.Steps()-1 != rs.AcceptedAt {
			add(ContractTAG, "Runner accepted at event %d, the batch run at %d", r.Steps()-1, rs.AcceptedAt)
			return
		}
		if d := diffBindings(r.Binding(), w); d != "" {
			add(ContractTAG, "Runner binding %v differs from the batch witness %v (%s)", r.Binding(), w, d)
			return
		}
	}
	if d := diffCounts(streamCnt.Snapshot(), batchCnt.Snapshot()); d != "" {
		add(ContractTAG, "Runner and batch counter totals differ: %s", d)
		return
	}
	full, err := snapshotBytes(r)
	if err != nil {
		add(ContractTAG, "snapshot of the uninterrupted run: %v", err)
		return
	}

	// Checkpoint mid-stream, round-trip through the codec, resume, and
	// compare final snapshots byte for byte.
	mid := len(in.Seq) / 2
	r2 := a.NewRunner(sys, tag.RunOptions{})
	for _, e := range in.Seq[:mid] {
		r2.Feed(e)
	}
	var buf bytes.Buffer
	cp, err := r2.Snapshot()
	if err == nil {
		err = cp.Encode(&buf)
	}
	if err != nil {
		add(ContractTAG, "mid-stream snapshot: %v", err)
		return
	}
	dec, err := tag.DecodeCheckpoint(&buf)
	if err != nil {
		add(ContractTAG, "decoding mid-stream snapshot: %v", err)
		return
	}
	r3, err := tag.RestoreRunner(a, sys, tag.RunOptions{}, dec)
	if err != nil {
		add(ContractTAG, "restoring mid-stream snapshot: %v", err)
		return
	}
	for _, e := range in.Seq[mid:] {
		r3.Feed(e)
	}
	resumed, err := snapshotBytes(r3)
	if err != nil {
		add(ContractTAG, "snapshot of the resumed run: %v", err)
		return
	}
	if !bytes.Equal(full, resumed) {
		add(ContractTAG, "resume at event %d diverges from the uninterrupted run", mid)
		return
	}

	// Anchored runs: per-reference verdicts equal ground truth, and the
	// batch merge is identical at any worker count and window.
	root, err := ct.Structure.Root()
	if err != nil {
		return
	}
	var refIdx []int
	for i, e := range in.Seq {
		if e.Type == ct.Assign[root] {
			refIdx = append(refIdx, i)
		}
	}
	if len(refIdx) == 0 {
		return
	}
	for _, window := range []int64{0, (in.HorizonEnd - in.HorizonStart + 1) / 2} {
		serial, err := a.AcceptsBatch(nil, sys, in.Seq, refIdx, window, 1, tag.RunOptions{})
		if err != nil {
			add(ContractTAG, "serial batch (window %d): %v", window, err)
			return
		}
		par, err := a.AcceptsBatch(nil, sys, in.Seq, refIdx, window, 3, tag.RunOptions{})
		if err != nil {
			add(ContractTAG, "parallel batch (window %d): %v", window, err)
			return
		}
		for i := range refIdx {
			if serial[i] != par[i] {
				add(ContractTAG, "batch verdicts diverge at reference %d between 1 and 3 workers (window %d)", refIdx[i], window)
				return
			}
		}
		if window == 0 {
			for i, idx := range refIdx {
				if bwant := bruteAnchoredOccurs(sys, ct, in.Seq, idx); serial[i] != bwant {
					add(ContractTAG, "anchored run at reference %d says %v, brute force says %v", idx, serial[i], bwant)
					return
				}
			}
		}
	}
}

// snapshotBytes encodes the runner's current snapshot.
func snapshotBytes(r *tag.Runner) ([]byte, error) {
	cp, err := r.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkMining cross-checks the miners three ways: Naive vs Optimized (at 1
// and 3 workers) must return identical discoveries, and a from-scratch
// enumeration of the full candidate space with brute-force anchored
// counting must reproduce exactly the discovered set — completeness and
// every match count at once.
func checkMining(in *Instance, k Knobs, sys *granularity.System, s *core.EventStructure,
	stats *CheckStats, add func(string, string, ...any)) {

	ct, err := in.ComplexType()
	if err != nil {
		stats.skip(ContractMining, "no total complex type: "+err.Error())
		return
	}
	root, err := s.Root()
	if err != nil {
		stats.skip(ContractMining, "structure has no root: "+err.Error())
		return
	}
	ref := ct.Assign[root]
	var refIdx []int
	for i, e := range in.Seq {
		if e.Type == ref {
			refIdx = append(refIdx, i)
		}
	}
	if len(refIdx) == 0 {
		stats.skip(ContractMining, "no reference occurrence in the sequence")
		return
	}
	types := sortedTypes(in.Seq)
	vars, err := s.TopoOrder()
	if err != nil {
		stats.skip(ContractMining, "structure is cyclic: "+err.Error())
		return
	}
	space := int64(1)
	for i := 1; i < len(vars) && space <= k.MiningMaxSpace; i++ {
		space *= int64(len(types))
	}
	if space > k.MiningMaxSpace {
		stats.skip(ContractMining, fmt.Sprintf("candidate space %d exceeds the bound %d", space, k.MiningMaxSpace))
		return
	}
	stats.ran(ContractMining)

	p := mining.Problem{Structure: s, MinConfidence: in.MinConfidence, Reference: ref}
	naive, _, nErr := mining.Naive(sys, p, in.Seq)
	if nErr != nil {
		add(ContractMining, "naive miner failed: %v", nErr)
		return
	}
	for _, workers := range []int{1, 3} {
		opt, _, oErr := mining.Optimized(sys, p, in.Seq, mining.PipelineOptions{Workers: workers})
		if oErr != nil {
			add(ContractMining, "optimized miner (%d workers) failed: %v", workers, oErr)
			return
		}
		if diff := diffDiscoveries(naive, opt); diff != "" {
			add(ContractMining, "naive vs optimized (%d workers): %s", workers, diff)
			return
		}
	}

	// Independent completeness check: enumerate every total assignment with
	// the reference type on the root, count matches by brute-force anchored
	// search, and compare the frequent set against the naive discoveries.
	got := map[string]mining.Discovery{}
	for _, d := range naive {
		got[mining.AssignKey(d.Assign)] = d
	}
	nonRoot := make([]core.Variable, 0, len(vars))
	for _, v := range vars {
		if v != root {
			nonRoot = append(nonRoot, v)
		}
	}
	assign := map[core.Variable]event.Type{root: ref}
	found := 0
	var enumerate func(idx int) bool
	enumerate = func(idx int) bool {
		if idx == len(nonRoot) {
			cand, err := core.NewComplexType(s, assign)
			if err != nil {
				add(ContractMining, "building candidate %v: %v", assign, err)
				return false
			}
			matches := 0
			for _, ri := range refIdx {
				if bruteAnchoredOccurs(sys, cand, in.Seq, ri) {
					matches++
				}
			}
			freq := float64(matches) / float64(len(refIdx))
			key := mining.AssignKey(assign)
			d, discovered := got[key]
			if frequent := freq > in.MinConfidence; frequent != discovered {
				add(ContractMining, "candidate %s has brute frequency %.3f (τ=%.2f) but discovered=%v",
					key, freq, in.MinConfidence, discovered)
				return false
			}
			if discovered {
				found++
				if d.Matches != matches {
					add(ContractMining, "discovery %s reports %d matches, brute force counts %d", key, d.Matches, matches)
					return false
				}
			}
			return true
		}
		for _, t := range types {
			assign[nonRoot[idx]] = event.Type(t)
			if !enumerate(idx + 1) {
				return false
			}
		}
		delete(assign, nonRoot[idx])
		return true
	}
	if !enumerate(0) {
		return
	}
	if found != len(naive) {
		add(ContractMining, "naive found %d discoveries but only %d lie in the enumerated candidate space", len(naive), found)
	}
}

// diffDiscoveries compares two discovery lists as sets keyed by assignment.
func diffDiscoveries(a, b []mining.Discovery) string {
	am := map[string]mining.Discovery{}
	for _, d := range a {
		am[mining.AssignKey(d.Assign)] = d
	}
	bm := map[string]mining.Discovery{}
	for _, d := range b {
		bm[mining.AssignKey(d.Assign)] = d
	}
	for k, da := range am {
		db, ok := bm[k]
		if !ok {
			return fmt.Sprintf("%s missing from the second set", k)
		}
		if da.Matches != db.Matches || da.Frequency != db.Frequency {
			return fmt.Sprintf("%s: matches/frequency %d/%.3f vs %d/%.3f", k, da.Matches, da.Frequency, db.Matches, db.Frequency)
		}
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			return fmt.Sprintf("%s extra in the second set", k)
		}
	}
	return ""
}

// diffBindings returns "" when the two witness bindings are identical, or
// a short description of the first difference.
func diffBindings(a, b map[string]int) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d variables", len(a), len(b))
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok {
			return k + " missing in the second"
		}
		if va != vb {
			return fmt.Sprintf("%s=%d vs %d", k, va, vb)
		}
	}
	return ""
}

// diffCounts returns "" when the two counter snapshots hold the same
// totals (a counter missing from one reads as 0), or a description of the
// first differing counter in name order.
func diffCounts(a, b map[string]int64) string {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %d vs %d", k, a[k], b[k])
		}
	}
	return ""
}

// storeAppendRun opens a store on fsys and appends seq one event at a
// time with fsync-per-append, returning how many appends were
// acknowledged before the first error (the crash, when a fault is armed).
func storeAppendRun(fsys store.FS, sys *granularity.System, grans []string, seq event.Sequence) (int, error) {
	st, _, err := store.Open("log", store.Options{
		FS: fsys, System: sys, Grans: grans, SegmentMaxBytes: 256, SyncEvery: 1,
	})
	if err != nil {
		return 0, err
	}
	acked := 0
	for _, e := range seq {
		if _, err := st.Append(e); err != nil {
			st.Close()
			return acked, err
		}
		acked++
	}
	return acked, st.Close()
}

// checkStoreReplay cross-checks the durable event store against the
// instance's sequence under a seeded mid-run crash: every
// fsync-acknowledged append must survive filesystem recovery, the
// recovered log must be an exact prefix of the appended sequence,
// re-appending the lost suffix must converge to the full sequence, and
// ScanFromTick must agree with a brute-force filter over the system's
// tick functions. Tiny segments force rolls so the seal/manifest paths
// sit inside the crash window too.
func checkStoreReplay(in *Instance, sys *granularity.System,
	stats *CheckStats, add func(string, string, ...any)) {

	if len(in.Seq) == 0 {
		stats.skip(ContractStoreReplay, "empty sequence")
		return
	}
	for i, e := range in.Seq {
		if e.Time < 1 || e.Type == "" || (i > 0 && e.Time < in.Seq[i-1].Time) {
			stats.skip(ContractStoreReplay, "sequence not appendable")
			return
		}
	}
	grans := append([]string{"second"}, in.granNames()...)

	// Fault-free run on a pristine filesystem sizes the crash window.
	dry := store.NewMemFS()
	if n, err := storeAppendRun(dry, sys, grans, in.Seq); err != nil {
		add(ContractStoreReplay, "fault-free append failed after %d of %d events: %v", n, len(in.Seq), err)
		return
	}
	total := dry.OpCount(store.OpAny)
	if total < 1 {
		stats.skip(ContractStoreReplay, "no mutating filesystem operations to crash at")
		return
	}
	stats.ran(ContractStoreReplay)

	// Crash at a seeded mutating operation, settle the disk, reopen.
	h := uint64(engine.SplitMix64(uint64(in.Seed) ^ 0x73746f7265)) // "store"
	nth := 1 + int64(h%uint64(total))
	fsys := store.NewMemFS()
	fsys.SetFault(&store.Fault{Op: store.OpAny, Nth: nth, Mode: store.FaultCrash, Seed: engine.SplitMix64(h)})
	acked, _ := storeAppendRun(fsys, sys, grans, in.Seq)
	fsys.Recover()

	st, _, err := store.Open("log", store.Options{
		FS: fsys, System: sys, Grans: grans, SegmentMaxBytes: 256, SyncEvery: 1,
	})
	if err != nil {
		add(ContractStoreReplay, "reopen after crash at op %d/%d: %v", nth, total, err)
		return
	}
	defer st.Close()
	if deg, q := st.Degraded(); deg {
		add(ContractStoreReplay, "crash at op %d/%d quarantined fully-synced segments %v", nth, total, q)
		return
	}
	got, err := st.Events()
	if err != nil {
		add(ContractStoreReplay, "reading recovered log after crash at op %d/%d: %v", nth, total, err)
		return
	}
	if len(got) < acked || len(got) > len(in.Seq) {
		add(ContractStoreReplay, "crash at op %d/%d: recovered %d events, want between %d acked and %d sent",
			nth, total, len(got), acked, len(in.Seq))
		return
	}
	for i := range got {
		if got[i] != in.Seq[i] {
			add(ContractStoreReplay, "crash at op %d/%d: recovered event %d is %v, want %v",
				nth, total, i, got[i], in.Seq[i])
			return
		}
	}

	// Re-append the lost suffix; the log must converge to the sequence.
	for _, e := range in.Seq[len(got):] {
		if _, err := st.Append(e); err != nil {
			add(ContractStoreReplay, "re-appending lost suffix after crash at op %d/%d: %v", nth, total, err)
			return
		}
	}
	final, err := st.Events()
	if err != nil {
		add(ContractStoreReplay, "reading converged log: %v", err)
		return
	}
	if len(final) != len(in.Seq) {
		add(ContractStoreReplay, "converged log has %d events, want %d", len(final), len(in.Seq))
		return
	}
	for i := range final {
		if final[i] != in.Seq[i] {
			add(ContractStoreReplay, "converged event %d is %v, want %v", i, final[i], in.Seq[i])
			return
		}
	}

	// ScanFromTick at a seeded probe per granularity must agree with a
	// brute-force filter: the suffix starts at the first covered record
	// whose granule is >= the probe tick.
	for gi, gran := range grans {
		j := int(uint64(engine.SplitMix64(h^uint64(gi+1))) % uint64(len(in.Seq)))
		tick, ok := sys.TickOf(gran, in.Seq[j].Time)
		if !ok {
			continue
		}
		recs, err := st.ScanFromTick(gran, tick)
		if err != nil {
			add(ContractStoreReplay, "ScanFromTick(%s, %d): %v", gran, tick, err)
			return
		}
		start := -1
		for i, e := range in.Seq {
			if z, ok := sys.TickOf(gran, e.Time); ok && z >= tick {
				start = i
				break
			}
		}
		want := 0
		if start >= 0 {
			want = len(in.Seq) - start
		}
		if len(recs) != want {
			add(ContractStoreReplay, "ScanFromTick(%s, %d) returned %d records, brute filter says %d",
				gran, tick, len(recs), want)
			return
		}
		for i, r := range recs {
			if r.Index != int64(start+i) || r.Event != in.Seq[start+i] {
				add(ContractStoreReplay, "ScanFromTick(%s, %d)[%d] = {%d %v}, want {%d %v}",
					gran, tick, i, r.Index, r.Event, start+i, in.Seq[start+i])
				return
			}
		}
	}
}

// diffIncrementalPrefix compares one prefix's incremental snapshot against
// a batch run: identical error presence and message, identical stats
// (TagRuns excluded — running fewer automata is the incremental miner's
// purpose) and an identical ordered discovery list.
func diffIncrementalPrefix(ids []mining.Discovery, ist mining.Stats, ierr error,
	bds []mining.Discovery, bst mining.Stats, berr error) string {
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
		if mining.AssignKey(ids[i].Assign) != mining.AssignKey(bds[i].Assign) ||
			ids[i].Matches != bds[i].Matches || ids[i].Frequency != bds[i].Frequency {
			return fmt.Sprintf("discovery %d = %s (%d, %v), batch %s (%d, %v)", i,
				mining.AssignKey(ids[i].Assign), ids[i].Matches, ids[i].Frequency,
				mining.AssignKey(bds[i].Assign), bds[i].Matches, bds[i].Frequency)
		}
	}
	return ""
}

// checkIncrementalEquiv proves the incremental miner equal to batch
// Optimized at EVERY prefix of the instance's sequence, through a live
// stream and through a seeded crash: at a seeded split the miner's
// checkpoint is consolidated, the event store (on a fault-injecting MemFS
// with batched fsyncs, so acknowledged-but-unsynced tail records can die)
// is crashed and recovered, and the contract requires
//
//   - a recovered log shorter than the checkpoint's high-water mark is
//     refused with the typed ErrHighWaterBeyondLog, and converges after
//     the lost tail is re-appended;
//   - the restored miner, after replaying the store's retained suffix,
//     matches batch Optimized on the split prefix and on every later
//     prefix as the remaining events stream in;
//   - at the full sequence, the witness bindings Explain extracts for the
//     incremental discoveries are identical to the batch ones.
func checkIncrementalEquiv(in *Instance, k Knobs, sys *granularity.System, s *core.EventStructure,
	stats *CheckStats, add func(string, string, ...any)) {

	ct, err := in.ComplexType()
	if err != nil {
		stats.skip(ContractIncrementalEquiv, "no total complex type: "+err.Error())
		return
	}
	root, err := s.Root()
	if err != nil {
		stats.skip(ContractIncrementalEquiv, "structure has no root: "+err.Error())
		return
	}
	ref := ct.Assign[root]
	refSeen := false
	for _, e := range in.Seq {
		if e.Type == ref {
			refSeen = true
		}
	}
	if !refSeen {
		stats.skip(ContractIncrementalEquiv, "no reference occurrence in the sequence")
		return
	}
	if len(in.Seq) == 0 {
		stats.skip(ContractIncrementalEquiv, "empty sequence")
		return
	}
	for i, e := range in.Seq {
		if e.Time < 1 || e.Type == "" || (i > 0 && e.Time < in.Seq[i-1].Time) {
			stats.skip(ContractIncrementalEquiv, "sequence not appendable")
			return
		}
	}
	types := sortedTypes(in.Seq)
	vars, err := s.TopoOrder()
	if err != nil {
		stats.skip(ContractIncrementalEquiv, "structure is cyclic: "+err.Error())
		return
	}
	space := int64(1)
	for i := 1; i < len(vars) && space <= k.MiningMaxSpace; i++ {
		space *= int64(len(types))
	}
	if space > k.MiningMaxSpace {
		stats.skip(ContractIncrementalEquiv, fmt.Sprintf("candidate space %d exceeds the bound %d", space, k.MiningMaxSpace))
		return
	}
	stats.ran(ContractIncrementalEquiv)

	p := mining.Problem{Structure: s, MinConfidence: in.MinConfidence, Reference: ref}
	batch := func(n int) ([]mining.Discovery, mining.Stats, error) {
		return mining.Optimized(sys, p, in.Seq[:n], mining.PipelineOptions{})
	}
	inc, err := mining.NewIncremental(sys, p, mining.PipelineOptions{})
	if err != nil {
		add(ContractIncrementalEquiv, "NewIncremental: %v", err)
		return
	}

	h := uint64(engine.SplitMix64(uint64(in.Seed) ^ 0x696e6372)) // "incr"
	split := 1 + int(h%uint64(len(in.Seq)))

	// Live stream: every prefix up to the split must match batch.
	var cpBytes []byte
	for i := 0; i < split; i++ {
		if err := inc.Append(in.Seq[i]); err != nil {
			add(ContractIncrementalEquiv, "append %d: %v", i, err)
			return
		}
		ids, ist, ierr := inc.Snapshot()
		bds, bst, berr := batch(i + 1)
		if d := diffIncrementalPrefix(ids, ist, ierr, bds, bst, berr); d != "" {
			add(ContractIncrementalEquiv, "prefix %d: %s", i+1, d)
			return
		}
	}
	cp, err := inc.Checkpoint()
	if err != nil {
		add(ContractIncrementalEquiv, "checkpoint at %d: %v", split, err)
		return
	}
	var buf bytes.Buffer
	if err := cp.Encode(&buf); err != nil {
		add(ContractIncrementalEquiv, "encode checkpoint: %v", err)
		return
	}
	cpBytes = buf.Bytes()

	// Crash leg: the split prefix goes into a store whose fsyncs are
	// batched, so the crash can drop an acknowledged-but-unsynced tail and
	// leave the recovered log SHORTER than the checkpoint's high-water
	// mark — the restore refusal the consolidation protocol depends on.
	grans := append([]string{"second"}, in.granNames()...)
	fsys := store.NewMemFS()
	st, _, err := store.Open("log", store.Options{
		FS: fsys, System: sys, Grans: grans, SegmentMaxBytes: 256, SyncEvery: 4,
	})
	if err != nil {
		add(ContractIncrementalEquiv, "open store: %v", err)
		return
	}
	for i := 0; i < split; i++ {
		if _, err := st.Append(in.Seq[i]); err != nil {
			add(ContractIncrementalEquiv, "store append %d: %v", i, err)
			st.Close()
			return
		}
	}
	fsys.CrashNow(int64(engine.SplitMix64(h)))
	st.Close()
	fsys.Recover()
	st, _, err = store.Open("log", store.Options{
		FS: fsys, System: sys, Grans: grans, SegmentMaxBytes: 256, SyncEvery: 1,
	})
	if err != nil {
		add(ContractIncrementalEquiv, "reopen after crash: %v", err)
		return
	}
	defer st.Close()
	recovered := st.Len()
	if recovered > int64(split) {
		add(ContractIncrementalEquiv, "recovered %d events from a %d-event prefix", recovered, split)
		return
	}

	cp2, err := mining.DecodeCheckpoint(bytes.NewReader(cpBytes))
	if err != nil {
		add(ContractIncrementalEquiv, "decode checkpoint: %v", err)
		return
	}
	inc2, err := mining.RestoreIncremental(sys, p, mining.PipelineOptions{}, cp2, recovered)
	if recovered < cp2.Incremental.HighWater {
		// The crash dropped consolidated events; restore must refuse with
		// the typed error, and succeed once the lost tail is re-appended.
		if !errors.Is(err, mining.ErrHighWaterBeyondLog) {
			add(ContractIncrementalEquiv, "restore against %d-event log (mark %d): got %v, want ErrHighWaterBeyondLog",
				recovered, cp2.Incremental.HighWater, err)
			return
		}
		for i := recovered; i < int64(split); i++ {
			if _, err := st.Append(in.Seq[i]); err != nil {
				add(ContractIncrementalEquiv, "re-append lost event %d: %v", i, err)
				return
			}
		}
		inc2, err = mining.RestoreIncremental(sys, p, mining.PipelineOptions{}, cp2, int64(split))
	}
	if err != nil {
		add(ContractIncrementalEquiv, "restore: %v", err)
		return
	}
	recs, err := st.ReadFrom(cp2.Incremental.ReplayFrom)
	if err != nil {
		add(ContractIncrementalEquiv, "ReadFrom(%d): %v", cp2.Incremental.ReplayFrom, err)
		return
	}
	for _, r := range recs {
		if r.Event != in.Seq[r.Index] {
			add(ContractIncrementalEquiv, "recovered record %d is %v, want %v", r.Index, r.Event, in.Seq[r.Index])
			return
		}
		if err := inc2.Append(r.Event); err != nil {
			add(ContractIncrementalEquiv, "replay record %d: %v", r.Index, err)
			return
		}
	}

	// The restored miner streams the rest; every remaining prefix must
	// match batch, and the final discovery list is kept for witnesses.
	var finalIDs []mining.Discovery
	for n := split; n <= len(in.Seq); n++ {
		if n > split {
			if err := inc2.Append(in.Seq[n-1]); err != nil {
				add(ContractIncrementalEquiv, "restored append %d: %v", n-1, err)
				return
			}
		}
		ids, ist, ierr := inc2.Snapshot()
		bds, bst, berr := batch(n)
		if d := diffIncrementalPrefix(ids, ist, ierr, bds, bst, berr); d != "" {
			add(ContractIncrementalEquiv, "restored prefix %d: %s", n, d)
			return
		}
		if n == len(in.Seq) && ierr == nil {
			finalIDs = bds // == ids by the diff above
			_ = ids
		}
	}

	// Witness bindings: Explain over the full sequence must extract the
	// same evidence for the incrementally-discovered set.
	for _, d := range finalIDs {
		iw, err := mining.Explain(sys, p, in.Seq, d, 2)
		if err != nil {
			add(ContractIncrementalEquiv, "explain %s: %v", mining.AssignKey(d.Assign), err)
			return
		}
		if len(iw) == 0 {
			add(ContractIncrementalEquiv, "discovery %s has no witness", mining.AssignKey(d.Assign))
			return
		}
		for _, w := range iw {
			for v, e := range w.Binding {
				if e.Type == "" {
					add(ContractIncrementalEquiv, "witness for %s binds %s to an empty event", mining.AssignKey(d.Assign), v)
					return
				}
			}
		}
	}
}
