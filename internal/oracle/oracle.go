// Package oracle is the differential test harness that cross-checks the
// repository's four solver layers — approximate propagation, the exact
// bounded-horizon solver, the TAG simulation, and the mining pipeline —
// against brute-force ground truth and against each other.
//
// The harness generates small random instances (a granularity system of
// synthetic periodic types, a rooted event structure with TCGs, a type
// assignment, an event sequence, a mining confidence) from a seed, then
// evaluates a library of executable contracts on each instance:
//
//   - consistency: propagate reporting inconsistent implies exact reports
//     unsatisfiable, and both agree with an exhaustive enumeration of
//     second-assignments over the bounded horizon (Theorems 1 and 2);
//   - derived-bounds: every brute-force witness satisfies every constraint
//     propagation derives (the Theorem-2 soundness statement);
//   - conversion: the Figure-3 granularity conversions are sound against
//     direct enumeration of granule pairs, and round trips only widen;
//   - distinction: [0,0]g stays distinguishable from any pure second
//     window ("[0,0]day is not [0,86399]second");
//   - tag: TAG acceptance equals exhaustive occurrence search (Theorem 3),
//     the accepting event and witness are the earliest-completing,
//     smallest enumerated occurrence, the streaming Runner matches the
//     batch run, and serial, parallel and checkpoint-resumed runs are
//     byte-identical;
//   - mining: Optimized equals Naive, and every discovery's match count
//     re-verifies against an anchored brute-force counter;
//   - incremental-equiv: the incremental miner, fed one event at a time
//     (and crash-restored mid-stream from a consolidated checkpoint over
//     a fault-injected store), matches batch Optimized at every prefix —
//     discoveries, screening stats and witness bindings.
//
// Violations are shrunk greedily (delete variable, delete constraint,
// narrow interval, drop events/granularities, halve horizon) and persisted
// as JSON repro files that replay as ordinary go test cases; see
// cmd/tempofuzz for the driver.
package oracle

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/periodic"
)

// Instance is one generated (or replayed) test case. All fields are plain
// data so instances serialize to repro files and mutate cheaply during
// shrinking; the solver-facing objects are materialized on demand.
type Instance struct {
	// Seed is the generator seed (0 for hand-written repros).
	Seed int64
	// Grans are the custom granularities of the instance's system, as
	// periodic specs. The system additionally always registers "second".
	Grans []periodic.Spec
	// Families names default-registry calendar families (see
	// granularity.FamilyNames) additionally registered in the system — real
	// zoned/fiscal/trading types the generator samples so the contracts run
	// over DST shifts, 53-week years and holiday gaps, not just synthetic
	// periodic shapes. The horizon is anchored near one of their interesting
	// boundaries.
	Families []string
	// Spec is the event structure plus its (total) type assignment.
	Spec *core.Spec
	// HorizonStart/HorizonEnd bound the brute-force and exact searches
	// (inclusive second indices).
	HorizonStart, HorizonEnd int64
	// Seq is the event sequence for the TAG and mining contracts.
	// Timestamps are pairwise distinct (the Theorem-3 tie caveat).
	Seq event.Sequence
	// MinConfidence is the mining threshold τ.
	MinConfidence float64

	sys *granularity.System
}

// System materializes (and caches) the instance's granularity system:
// "second" plus every spec in Grans. It errors on invalid specs.
func (in *Instance) System() (*granularity.System, error) {
	if in.sys != nil {
		return in.sys, nil
	}
	// Metrics horizon: enough granules that every metric within the brute
	// horizon is exact; coverage sampling likewise stays cheap and covers
	// the whole horizon for the short periods the generator emits.
	sys := granularity.NewSystem(256, 64)
	sys.Add(granularity.Second())
	for i := range in.Grans {
		g, err := periodic.New(in.Grans[i])
		if err != nil {
			return nil, fmt.Errorf("oracle: granularity %d: %w", i, err)
		}
		sys.Add(g)
	}
	for _, name := range in.Families {
		if _, ok := sys.Get(name); ok {
			continue // "second" is always registered
		}
		g, ok := granularity.NewFamily(name)
		if !ok {
			return nil, fmt.Errorf("oracle: unknown calendar family %q", name)
		}
		sys.Add(g)
	}
	in.sys = sys
	return sys, nil
}

// granNames returns every granularity name of the instance's system beyond
// the implicit "second": the synthetic periodic types plus the enrolled
// calendar families.
func (in *Instance) granNames() []string {
	names := make([]string, 0, len(in.Grans)+len(in.Families))
	for i := range in.Grans {
		names = append(names, in.Grans[i].Name)
	}
	for _, f := range in.Families {
		if f != "second" {
			names = append(names, f)
		}
	}
	return names
}

// Structure materializes the event structure.
func (in *Instance) Structure() (*core.EventStructure, error) {
	if in.Spec == nil {
		return nil, fmt.Errorf("oracle: instance has no spec")
	}
	return in.Spec.Structure()
}

// ComplexType materializes the structure with its assignment.
func (in *Instance) ComplexType() (*core.ComplexType, error) {
	if in.Spec == nil {
		return nil, fmt.Errorf("oracle: instance has no spec")
	}
	return in.Spec.ComplexType()
}

// invalidate drops cached materializations after a mutation.
func (in *Instance) invalidate() { in.sys = nil }

// Clone deep-copies the instance (the caches are not shared).
func (in *Instance) Clone() *Instance {
	out := &Instance{
		Seed:          in.Seed,
		HorizonStart:  in.HorizonStart,
		HorizonEnd:    in.HorizonEnd,
		MinConfidence: in.MinConfidence,
	}
	out.Families = append([]string(nil), in.Families...)
	out.Grans = make([]periodic.Spec, len(in.Grans))
	for i, sp := range in.Grans {
		cp := sp
		cp.Granules = make([]periodic.Granule, len(sp.Granules))
		for j, g := range sp.Granules {
			cp.Granules[j] = periodic.Granule{Spans: append([]periodic.Span(nil), g.Spans...)}
		}
		out.Grans[i] = cp
	}
	if in.Spec != nil {
		sp := &core.Spec{
			Variables: append([]string(nil), in.Spec.Variables...),
			Edges:     make([]core.EdgeSpec, len(in.Spec.Edges)),
		}
		for i, e := range in.Spec.Edges {
			sp.Edges[i] = core.EdgeSpec{
				From:        e.From,
				To:          e.To,
				Constraints: append([]core.TCGSpec(nil), e.Constraints...),
			}
		}
		if in.Spec.Assign != nil {
			sp.Assign = make(map[string]string, len(in.Spec.Assign))
			for k, v := range in.Spec.Assign {
				sp.Assign[k] = v
			}
		}
		out.Spec = sp
	}
	out.Seq = append(event.Sequence(nil), in.Seq...)
	return out
}

// Violation is one contract failure on an instance.
type Violation struct {
	// Contract names the violated contract (see the Contract* constants).
	Contract string
	// Detail is a human-readable description of the failure.
	Detail string
}

// String renders the violation.
func (v Violation) String() string { return v.Contract + ": " + v.Detail }

// Contract names, stable across releases: repro files reference them.
const (
	ContractConsistency  = "consistency"
	ContractDerivedBound = "derived-bounds"
	ContractConversion   = "conversion"
	ContractDistinction  = "distinction"
	ContractTAG          = "tag"
	ContractMining       = "mining"
	ContractStoreReplay  = "store-replay"
	// ContractIncrementalEquiv feeds the instance's sequence one event at a
	// time into the incremental miner and requires discoveries, screening
	// stats and witness bindings identical to batch Optimized at EVERY
	// prefix, including across a seeded mid-stream store crash, recovery
	// and checkpoint restore.
	ContractIncrementalEquiv = "incremental-equiv"
	// ContractClusterRebalance streams the instance's sequence into a TAG
	// session through a router over two in-process worker tempods, drains
	// the owning worker mid-stream (a full rebalance-by-checkpoint
	// handover with byte-verify and an epoch bump), and requires the final
	// stream view identical to a standalone tempod fed the same events.
	ContractClusterRebalance = "cluster-rebalance"
)

// ContractNames lists every contract in evaluation order; Knobs.Only
// selects among exactly these names.
func ContractNames() []string {
	return []string{ContractConsistency, ContractDerivedBound, ContractConversion, ContractDistinction,
		ContractTAG, ContractMining, ContractStoreReplay, ContractIncrementalEquiv, ContractClusterRebalance}
}
