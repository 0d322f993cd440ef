// Benchmarks: one per experiment of DESIGN.md's index (E1..E13), each
// exercising the computation that regenerates the corresponding
// EXPERIMENTS.md table, plus micro-benchmarks of the core operations.
// Run with: go test -bench=. -benchmem
package tempo

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/episode"
	"repro/internal/event"
	"repro/internal/exact"
	"repro/internal/experiments"
	"repro/internal/granularity"
	"repro/internal/hardness"
	"repro/internal/mining"
	"repro/internal/periodic"
	"repro/internal/propagate"
	"repro/internal/stp"
	"repro/internal/tag"
)

var benchSys = granularity.Default()

// BenchmarkE1PropagationFig1a: the Figure-1(a) propagation that derives the
// paper's Γ'(X0,X3).
func BenchmarkE1PropagationFig1a(b *testing.B) {
	b.ReportAllocs()
	s := core.Fig1a()
	for i := 0; i < b.N; i++ {
		r, err := propagate.Run(benchSys, s, propagate.Options{})
		if err != nil || !r.Consistent {
			b.Fatal("propagation failed")
		}
	}
}

// BenchmarkE2DisjunctionGadget: exact solving of Figure 1(b)'s pinned
// variants (the {0,12} disjunction).
func BenchmarkE2DisjunctionGadget(b *testing.B) {
	b.ReportAllocs()
	end, _ := granularity.Year().Span(4)
	for i := 0; i < b.N; i++ {
		s := core.Fig1b()
		s.MustConstrain("X0", "X2", core.MustTCG(12, 12, "month"))
		v, err := exact.Solve(benchSys, s, exact.Options{Start: 1, End: end.Last})
		if err != nil || !v.Satisfiable {
			b.Fatal("gadget should be satisfiable at distance 12")
		}
	}
}

// BenchmarkE3SubsetSumReduction: building and exactly solving a k=3
// Theorem-1 reduction instance.
func BenchmarkE3SubsetSumReduction(b *testing.B) {
	b.ReportAllocs()
	in := hardness.Generate(3, true, 11)
	start, end := hardness.Horizon(in)
	for i := 0; i < b.N; i++ {
		sys := granularity.Default()
		s, err := hardness.Reduce(in, sys)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := exact.Solve(sys, s, exact.Options{Start: start, End: end}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4PropagationScaling: propagation over a 16-variable random
// structure with three granularities.
func BenchmarkE4PropagationScaling(b *testing.B) {
	b.ReportAllocs()
	tab := experiments.E4 // table variant covered by the experiment; bench a fixed point
	_ = tab
	s := benchRandomStructure(16)
	for i := 0; i < b.N; i++ {
		if _, err := propagate.Run(benchSys, s, propagate.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRandomStructure(n int) *core.EventStructure {
	s := core.NewStructure()
	grans := []string{"hour", "day", "week"}
	for i := 1; i < n; i++ {
		g := grans[i%len(grans)]
		s.MustConstrain(
			core.Variable(fmt.Sprintf("X%d", i-1)),
			core.Variable(fmt.Sprintf("X%d", i)),
			core.MustTCG(int64(i%3), int64(i%3+4), g),
		)
	}
	return s
}

// BenchmarkE5TAGConstruction: compiling Example 1's complex type into the
// Figure-2 automaton.
func BenchmarkE5TAGConstruction(b *testing.B) {
	b.ReportAllocs()
	ct, err := core.NewComplexType(core.Fig1a(), core.Example1Assignment())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := tag.Compile(ct); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6TAGMatching: a full-sequence scan of a 120-day stock workload
// (~reported per op; divide by the event count for per-event cost).
func BenchmarkE6TAGMatching(b *testing.B) {
	b.ReportAllocs()
	assign := core.Example1Assignment()
	assign["X3"] = "IBM-split" // absent: force full scans
	ct, err := core.NewComplexType(core.Fig1a(), assign)
	if err != nil {
		b.Fatal(err)
	}
	a, err := tag.Compile(ct)
	if err != nil {
		b.Fatal(err)
	}
	seq := event.GenerateStock(event.StockConfig{
		Symbols: []string{"IBM", "HP"}, StartYear: 1996, Days: 120, Seed: 11, MoveProb: 0.15,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, _ := a.Accepts(benchSys, seq, tag.RunOptions{}); ok {
			b.Fatal("absent type must not be accepted")
		}
	}
	b.ReportMetric(float64(len(seq)), "events/op")
}

// BenchmarkE7MiningPipeline and BenchmarkE7MiningNaive: the Section-5
// comparison on the plant workload.
func BenchmarkE7MiningPipeline(b *testing.B) {
	b.ReportAllocs()
	seq, p := benchMiningSetup()
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(benchSys, p, seq, mining.PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7MiningNaive is the baseline of E7.
func BenchmarkE7MiningNaive(b *testing.B) {
	b.ReportAllocs()
	seq, p := benchMiningSetup()
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Naive(benchSys, p, seq); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMiningSetup() (event.Sequence, mining.Problem) {
	seq := event.GeneratePlant(event.PlantFaultConfig{
		Machines: 2, StartYear: 1996, Days: 60, Seed: 17, CascadeProb: 0.75,
	})
	s := core.NewStructure()
	s.MustConstrain("X0", "X1", core.MustTCG(0, 0, "b-day"), core.MustTCG(1, 4, "hour"))
	s.MustConstrain("X1", "X2", core.MustTCG(1, 1, "b-day"))
	return seq, mining.Problem{Structure: s, MinConfidence: 0.5, Reference: "overheat-m0"}
}

// BenchmarkE8EpisodeBaseline: the MTV95 window-frequency computation the E8
// comparison uses.
func BenchmarkE8EpisodeBaseline(b *testing.B) {
	b.ReportAllocs()
	seq := event.GenerateATM(event.ATMConfig{Accounts: 3, StartYear: 1996, Days: 90, Seed: 5})
	ep := episode.NewSerial("deposit-0", "withdrawal-0")
	for i := 0; i < b.N; i++ {
		episode.Frequency(seq, ep, 86400)
	}
}

// BenchmarkE9ConversionTightness: the Figure-3 interval conversion between
// calendar granularities.
func BenchmarkE9ConversionTightness(b *testing.B) {
	b.ReportAllocs()
	conv := propagate.NewConverter(benchSys, "b-day", "week")
	for i := 0; i < b.N; i++ {
		conv.Interval(0, 5)
	}
}

// BenchmarkE10DiscoveryRecall: the full optimized discovery on the planted
// plant workload.
func BenchmarkE10DiscoveryRecall(b *testing.B) {
	b.ReportAllocs()
	seq := event.GeneratePlant(event.PlantFaultConfig{
		Machines: 2, StartYear: 1996, Days: 90, Seed: 31, CascadeProb: 0.9,
	})
	s := core.NewStructure()
	s.MustConstrain("X0", "X1", core.MustTCG(0, 0, "b-day"), core.MustTCG(1, 4, "hour"))
	s.MustConstrain("X1", "X2", core.MustTCG(1, 1, "b-day"))
	p := mining.Problem{Structure: s, MinConfidence: 0.5, Reference: "overheat-m0"}
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(benchSys, p, seq, mining.PipelineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11ChainAblationGreedy / PerArc: TAG matching cost under the two
// chain covers.
func BenchmarkE11ChainAblationGreedy(b *testing.B) {
	b.ReportAllocs()
	benchChainCover(b, false)
}

// BenchmarkE11ChainAblationPerArc is the per-arc (worst) cover.
func BenchmarkE11ChainAblationPerArc(b *testing.B) {
	b.ReportAllocs()
	benchChainCover(b, true)
}

func benchChainCover(b *testing.B, naive bool) {
	s := core.Fig1a()
	var chains [][]core.Variable
	var err error
	if naive {
		chains, err = tag.NaiveChains(s)
	} else {
		chains, err = tag.Chains(s)
	}
	if err != nil {
		b.Fatal(err)
	}
	a, err := tag.FromChains(s, chains, nil)
	if err != nil {
		b.Fatal(err)
	}
	var seq event.Sequence
	t := event.At(1996, 2, 5, 0, 0, 0)
	for i := 0; i < 400; i++ {
		v := s.Variables()[i%4]
		t += int64(1800 + (i%7)*3600)
		seq = append(seq, event.Event{Type: event.Type(v), Time: t})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Accepts(benchSys, seq, tag.RunOptions{})
	}
}

// BenchmarkE12PipelineAblation: the pipeline with all optimizations off
// (the "naive with windows" ablation floor).
func BenchmarkE12PipelineAblation(b *testing.B) {
	b.ReportAllocs()
	seq, p := benchMiningSetup()
	opt := mining.PipelineOptions{
		DisableSequenceReduction: true, DisableReferencePruning: true,
		DisableCandidateScreening: true, DisablePairScreening: true,
	}
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(benchSys, p, seq, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks of the substrate operations ---

// BenchmarkSTPMinimize: Floyd-Warshall on a 32-variable network.
func BenchmarkSTPMinimize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nw := stp.New(32)
		for j := 1; j < 32; j++ {
			nw.Constrain(j-1, j, int64(j%3), int64(j%3+5))
		}
		b.StartTimer()
		nw.Minimize()
	}
}

// BenchmarkGranularityTickOf: month lookup for one timestamp.
func BenchmarkGranularityTickOf(b *testing.B) {
	b.ReportAllocs()
	g := granularity.Month()
	t := event.At(1996, 7, 4, 12, 0, 0)
	for i := 0; i < b.N; i++ {
		g.TickOf(t)
	}
}

// BenchmarkBusinessDayTickOf: gap-aware lookup with the holiday calendar.
func BenchmarkBusinessDayTickOf(b *testing.B) {
	b.ReportAllocs()
	g := granularity.BDayUS()
	t := event.At(1996, 7, 5, 12, 0, 0)
	g.TickOf(t) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TickOf(t)
	}
}

// BenchmarkTCGSatisfied: one constraint check.
func BenchmarkTCGSatisfied(b *testing.B) {
	b.ReportAllocs()
	c := core.MustTCG(0, 0, "day")
	t1 := event.At(1996, 6, 3, 9, 0, 0)
	t2 := event.At(1996, 6, 3, 17, 0, 0)
	for i := 0; i < b.N; i++ {
		if !c.Satisfied(benchSys, t1, t2) {
			b.Fatal("should hold")
		}
	}
}

// BenchmarkMetricsMinSize: the minsize table lookup driving conversions.
func BenchmarkMetricsMinSize(b *testing.B) {
	b.ReportAllocs()
	m := granularity.NewMetrics(granularity.Month(), 0)
	m.MinSize(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MinSize(int64(i%300 + 1))
	}
}

// BenchmarkEpisodeMine: level-wise episode mining on an ATM stream.
func BenchmarkEpisodeMine(b *testing.B) {
	b.ReportAllocs()
	seq := event.GenerateATM(event.ATMConfig{Accounts: 2, StartYear: 1996, Days: 30, Seed: 5})
	for i := 0; i < b.N; i++ {
		if _, err := episode.Mine(seq, episode.Config{Kind: episode.Serial, Window: 86400, MinFreq: 0.05, MaxSize: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSubsetSumDP: the dynamic-programming comparator of E3.
func BenchmarkSubsetSumDP(b *testing.B) {
	b.ReportAllocs()
	in := hardness.Generate(5, true, 3)
	for i := 0; i < b.N; i++ {
		hardness.SolveSubsetSum(in)
	}
}

// BenchmarkE7MiningPipelineParallel: the step-5 scan fanned out to 8
// workers (compare with BenchmarkE7MiningPipeline).
func BenchmarkE7MiningPipelineParallel(b *testing.B) {
	b.ReportAllocs()
	seq, p := benchMiningSetup()
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(benchSys, p, seq, mining.PipelineOptions{Workers: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchE13Setup: the E13 heavy-scan workload — screening off so every
// candidate reaches step 5, which is where the worker pool earns its keep.
func benchE13Setup() (event.Sequence, mining.Problem, mining.PipelineOptions) {
	seq := event.GeneratePlant(event.PlantFaultConfig{
		Machines: 3, StartYear: 1996, Days: 120, Seed: 53, CascadeProb: 0.9,
	})
	s := core.NewStructure()
	s.MustConstrain("X0", "X1", core.MustTCG(0, 0, "b-day"), core.MustTCG(1, 4, "hour"))
	s.MustConstrain("X1", "X2", core.MustTCG(1, 1, "b-day"))
	p := mining.Problem{Structure: s, MinConfidence: 0.5, Reference: "overheat-m0"}
	opt := mining.PipelineOptions{
		DisableCandidateScreening: true,
		DisablePairScreening:      true,
	}
	return seq, p, opt
}

// BenchmarkE13MiningSerial: the unscreened E13 scan on one goroutine — the
// baseline for the parallel speedup scripts/benchgate gates on 4+ cores.
func BenchmarkE13MiningSerial(b *testing.B) {
	b.ReportAllocs()
	seq, p, opt := benchE13Setup()
	opt.Workers = 1
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(benchSys, p, seq, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE13MiningParallel: the same scan sharded over 8 workers. The
// discovery output is byte-identical to the serial run; only wall-clock
// should move (with headroom proportional to core count).
func BenchmarkE13MiningParallel(b *testing.B) {
	b.ReportAllocs()
	seq, p, opt := benchE13Setup()
	opt.Workers = 8
	for i := 0; i < b.N; i++ {
		if _, _, err := mining.Optimized(benchSys, p, seq, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTAGBatchSetup compiles the cascade's first hop and collects the
// anchored references of a dense plant workload.
func benchTAGBatchSetup(b *testing.B) (*tag.TAG, event.Sequence, []int) {
	s := core.NewStructure()
	s.MustConstrain("A", "B", core.MustTCG(0, 0, "b-day"), core.MustTCG(1, 4, "hour"))
	ct, err := core.NewComplexType(s, map[core.Variable]event.Type{
		"A": "overheat-m0", "B": "malfunction-m0",
	})
	if err != nil {
		b.Fatal(err)
	}
	a, err := tag.Compile(ct)
	if err != nil {
		b.Fatal(err)
	}
	seq := event.GeneratePlant(event.PlantFaultConfig{
		Machines: 2, StartYear: 1996, Days: 365, Seed: 29, CascadeProb: 0.7,
	})
	var refIdx []int
	for i, e := range seq {
		if e.Type == "overheat-m0" {
			refIdx = append(refIdx, i)
		}
	}
	if len(refIdx) == 0 {
		b.Fatal("no anchors")
	}
	return a, seq, refIdx
}

// BenchmarkTAGBatchSerial: the anchored frequency count on one goroutine.
func BenchmarkTAGBatchSerial(b *testing.B) {
	b.ReportAllocs()
	a, seq, refIdx := benchTAGBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AcceptsBatch(nil, benchSys, seq, refIdx, 0, 1, tag.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTAGBatchParallel: the same batch fanned out to 8 workers.
func BenchmarkTAGBatchParallel(b *testing.B) {
	b.ReportAllocs()
	a, seq, refIdx := benchTAGBatchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.AcceptsBatch(nil, benchSys, seq, refIdx, 0, 8, tag.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPeriodicTickOf: granule lookup in a user-defined periodic type.
func BenchmarkPeriodicTickOf(b *testing.B) {
	b.ReportAllocs()
	g := periodic.MustNew(periodic.Spec{
		Name: "shift", Period: 86400, Anchor: 1,
		Granules: []periodic.Granule{
			{Spans: []periodic.Span{{First: 6 * 3600, Last: 14*3600 - 1}}},
			{Spans: []periodic.Span{{First: 14 * 3600, Last: 22*3600 - 1}}},
		},
	})
	t := event.At(1996, 7, 4, 9, 0, 0)
	for i := 0; i < b.N; i++ {
		g.TickOf(t)
	}
}

// BenchmarkUnrollCompile: compiling a 3x-unrolled repetitive pattern.
func BenchmarkUnrollCompile(b *testing.B) {
	b.ReportAllocs()
	base := core.NewStructure()
	base.MustConstrain("A", "B", core.MustTCG(0, 0, "day"), core.MustTCG(1, 4, "hour"))
	u, err := core.Unroll(base, 3, "B", []core.TCG{core.MustTCG(1, 1, "day")})
	if err != nil {
		b.Fatal(err)
	}
	assign := core.UnrollAssignment(3, map[core.Variable]event.Type{"A": "a", "B": "b"})
	ct, err := core.NewComplexType(u, assign)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tag.Compile(ct); err != nil {
			b.Fatal(err)
		}
	}
}
