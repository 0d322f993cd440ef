package main

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
)

func TestTailChoiceLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		perMille int
		ok       bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 900, true},
		{999, 900, true},
		{1000, 990, true},
		{9999, 990, true},
		{10000, 999, true},
		{250000, 999, true},
	} {
		q, ok := tailChoice(tc.n)
		if q != tc.perMille || ok != tc.ok {
			t.Errorf("tailChoice(%d) = %d, %v; want %d, %v", tc.n, q, ok, tc.perMille, tc.ok)
		}
		if ok && tc.n*(1000-q)/1000 < minBeyond {
			t.Errorf("tailChoice(%d) = p%d leaves fewer than %d samples beyond", tc.n, q, minBeyond)
		}
	}
}

func TestSummarizePercentiles(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	s := summarize(xs)
	if s.n != 1000 || s.tailName != "p99" {
		t.Fatalf("summarize: n=%d tail=%q, want 1000 and p99", s.n, s.tailName)
	}
	if math.Abs(s.p50-500.5) > 1e-9 || math.Abs(s.tail-990.01) > 1e-9 {
		t.Errorf("summarize: p50=%v tail=%v, want 500.5 and 990.01", s.p50, s.tail)
	}
	if got := summarize(xs[:50]); got.tailName != "" {
		t.Errorf("50 samples support no tail, got %q", got.tailName)
	}
}

func sp(id, parent, op int, name string, start, end time.Duration) span {
	return span{id: id, parent: parent, op: op, name: name, start: start, end: end}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		sp(0, -1, 1, "parent", 0, 100),
		sp(1, 0, 1, "a", 10, 40),
		sp(2, 0, 1, "b", 30, 60),  // overlaps a: [10,60] counts once
		sp(3, 0, 1, "c", 90, 120), // clipped to the parent's end
		sp(4, 0, 1, "d", 50, 55),  // inside a∪b
		sp(5, 1, 1, "grandchild", 15, 20),
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{0: 40, 1: 25, 2: 30, 3: 30, 4: 5, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%s) = %v, want %v", spans[id].name, self[id], w)
		}
	}
}

func TestResidualIsClientTimeNotCoveredByServerSpans(t *testing.T) {
	// An op of two requests; the first reaches a router that proxies to a
	// worker, the second only a worker. Times in microseconds.
	u := time.Microsecond
	spans := []span{
		sp(0, -1, 7, spanOp, 0, 1000*u),
		sp(1, 0, 7, spanRequest, 50*u, 450*u),
		sp(2, 1, 7, spanRouter, 100*u, 400*u),
		sp(3, 2, 7, spanWorker, 150*u, 350*u),
		sp(4, 0, 7, spanRequest, 500*u, 900*u),
		sp(5, 4, 7, spanWorker, 520*u, 880*u),
		sp(6, 0, 7, "redrive.tag.feed", 1100*u, 1200*u), // after the op: no effect
	}
	g := groupByOp(spans)[7]
	r := &runCtx{layer: means{}}
	rec := &opRecord{i: 7, res: opResult{class: primary}}
	residual(r, rec, g, 0)
	// Client time outside server spans: op self 200 (0-50, 450-500,
	// 900-1000) + request self 100+40.
	if got := r.layer.value("residual_ms.primary"); math.Abs(got-0.34) > 1e-9 {
		t.Errorf("residual = %v ms, want 0.34", got)
	}
	if g.dur[spanRouter] != 300*u || g.dur[spanWorker] != 560*u || g.self[spanRouter] != 100*u {
		t.Errorf("span sums by name: router %v (self %v), worker %v", g.dur[spanRouter], g.self[spanRouter], g.dur[spanWorker])
	}
	// Work attributed outside every span (a job's stages) comes off too.
	rec.res.class = second
	residual(r, rec, g, 40*u)
	if got := r.layer.value("residual_ms.second"); math.Abs(got-0.30) > 1e-9 {
		t.Errorf("second residual = %v ms, want 0.30", got)
	}
}

func TestCounterDeltasPerOp(t *testing.T) {
	a, b := engine.NewCounters(), engine.NewCounters()
	a.Count("propagate.rounds", 5)
	b.Count("server.rejected.busy", 1)
	start := takeCut(a, b)
	var perOp []cut
	for op := 1; op <= 3; op++ {
		c0 := takeCut(a, b)
		a.Count("propagate.rounds", int64(op))
		b.Count("propagate.rounds", 10)
		b.Count("server.rejected.draining", int64(op%2))
		a.Stage("propagate", time.Duration(op)*time.Millisecond)
		perOp = append(perOp, takeCut(a, b).sub(c0))
	}
	total := takeCut(a, b).sub(start)
	var rounds, rejected int64
	var stage time.Duration
	for op, d := range perOp {
		if want := int64(op+1) + 10; d.counts["propagate.rounds"] != want {
			t.Errorf("op %d rounds delta = %d, want %d", op+1, d.counts["propagate.rounds"], want)
		}
		if d.stageTotal() != time.Duration(op+1)*time.Millisecond {
			t.Errorf("op %d stage delta = %v", op+1, d.stageTotal())
		}
		rounds += d.counts["propagate.rounds"]
		rejected += d.countPrefix("server.rejected.")
		stage += d.stageTotal()
	}
	if rounds != total.counts["propagate.rounds"] || rejected != total.countPrefix("server.rejected.") || stage != total.stageTotal() {
		t.Errorf("per-op deltas do not sum to the run's delta: %d/%d %d/%d %v/%v",
			rounds, total.counts["propagate.rounds"], rejected, total.countPrefix("server.rejected."), stage, total.stageTotal())
	}
	if _, ok := perOp[1].counts["server.rejected.draining"]; ok {
		t.Errorf("a counter that did not move must not appear in the delta")
	}
	m := means{}
	for _, d := range perOp {
		m.add("stp.relaxations", float64(d.counts["propagate.rounds"]))
	}
	if m.value("stp.relaxations") != 12 || m.value("absent") != 0 {
		t.Errorf("means: %v %v", m.value("stp.relaxations"), m.value("absent"))
	}
}

func TestOpMixIsFixed(t *testing.T) {
	const n = 4000
	churn, refresh, exact := 0, 0, 0
	batches := map[[2]int]bool{}
	refreshes := map[[2]int]bool{}
	for i := 0; i < n; i++ {
		if isChurn, s, b, _ := liveOp(i); isChurn {
			churn++
		} else if batches[[2]int{s, b}] || b == 0 {
			t.Fatalf("live op %d repeats batch %d of session %d or reuses a warm-up batch", i, b, s)
		} else {
			batches[[2]int{s, b}] = true
		}
		if isRefresh, _, s, k := mineOp(i); isRefresh {
			refresh++
			if refreshes[[2]int{s, k}] || k < 2 {
				t.Fatalf("mine op %d repeats refresh %d of session %d or reuses a warm-up refresh", i, k, s)
			}
			refreshes[[2]int{s, k}] = true
		}
		if i%exactEvery == exactEvery-1 {
			exact++
		}
	}
	if churn != n/churnEvery || refresh != n/refreshEvery || exact != n/exactEvery {
		t.Errorf("second-op shares: churn %d, refresh %d, exact %d of %d", churn, refresh, exact, n)
	}
}

func TestExactPoolKeepsMeasuredShares(t *testing.T) {
	sys, err := cli.LoadSystem("", nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range exactStrata {
		total += n
	}
	if total != exactPoolSize {
		t.Fatalf("exactStrata holds %d slots, the pool %d", total, exactPoolSize)
	}
	for seed := int64(1); seed <= 3; seed++ {
		got, firsts := map[string]int{}, 0
		for _, pl := range drawExact(sys, rand.New(rand.NewSource(seed))) {
			got[costClass(pl.s)]++
			if pl.first {
				firsts++
			}
		}
		for class, n := range exactStrata {
			if got[class] != n {
				t.Errorf("seed %d: %d %s structures, want %d", seed, got[class], class, n)
			}
		}
		if firsts != len(exactStrata) {
			t.Errorf("seed %d: %d warm-up structures, want one per class", seed, firsts)
		}
	}
}

func TestLiveInputsDoNotDependOnRunLength(t *testing.T) {
	short, shortChurn := drawLive(7, 2)
	long, longChurn := drawLive(7, 40)
	for k, ls := range short {
		if !reflect.DeepEqual(ls.spec, long[k].spec) {
			t.Errorf("session %d: complex type changes with the run length", k)
		}
		if !reflect.DeepEqual(ls.stream, long[k].stream[:len(ls.stream)]) {
			t.Errorf("session %d: stream prefix changes with the run length", k)
		}
	}
	if !reflect.DeepEqual(shortChurn, longChurn) {
		t.Errorf("churn cases change with the run length")
	}
}

func TestJobPoolSurvivesGeneratorPanic(t *testing.T) {
	// Seed 14 draws an access stream on which event.GenerateAccess panics.
	rng := rand.New(rand.NewSource(14))
	for k := 0; k < jobSlots; k++ {
		if _, seq := jobProblem(k, rng.Int63()); len(seq) == 0 {
			t.Fatalf("slot %d: empty stream", k)
		}
	}
}
