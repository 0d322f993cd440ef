package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/server"
)

// The check workload: a standalone tempod serving POST /v1/check. Most ops
// run propagation only; every exactEvery-th op also runs the exact solver
// over 2026 under a fixed work budget.
const (
	checkPoolSize = 1024
	exactPoolSize = 25
	exactEvery    = 5
	// exactBudget caps each exact op's search, so no heavy-tailed instance
	// takes over a run; an interrupted reply is deterministic and checked
	// byte for byte like any other.
	exactBudget = 5000
	checkYear   = 2026
)

// checkGrans are the TCG granularities of the check pool, the default
// system's standard units and calendar-zoo families.
var checkGrans = []string{"minute", "hour", "b-day", "b-week", "day-et", "week-et", "f-month", "session"}

// exactStrata fixes how many of the exactPoolSize exact structures fall in
// each cost class (see costClass), at the shares measured on unrestricted
// plantStructure draws: over seeds 1-200 (217,600 draws) 71.1% held a
// minute TCG, 19.9% an hour TCG but no minute one, 9.0% neither. A minute
// TCG costs the exact solver about 250-350 ms over 2026 outside its
// search, an hour TCG a few ms, so the class sets an exact op's cost. Left
// free, the minute share of a 64-structure pool ranged 61-77% over four
// seeds; with the counts fixed a seed cannot move throughput or the second
// op's percentiles that way. Each slot takes the next unrestricted draw of
// its class.
var exactStrata = map[string]int{"minute": 18, "hour": 5, "coarse": 2}

// checkSlack widens a planted granule distance into a TCG range.
var checkSlack = map[string]int64{"minute": 240, "hour": 6, "b-day": 2, "b-week": 1, "day-et": 2, "week-et": 1, "f-month": 1, "session": 2}

type checkCase struct {
	exact bool
	s     *core.EventStructure
	times map[core.Variable]int64 // the planted 2026 witness
	body  []byte
	want  []byte
	// interrupted marks a reference reply cut short by the budget.
	interrupted bool
	// bad is set when the reference itself fails a direct check.
	bad error
}

type checkWorkload struct {
	cases  []*checkCase
	exacts []*checkCase
	// warmExact is the first exact case of each cost class.
	warmExact []*checkCase
	td        *tempod
	c         *client
}

// rate gives 100 exact ops in a 20-second run: four passes over the exact
// pool, so every cost class gets exactly its share of them.
func (w *checkWorkload) rate() int { return 25 }

func (w *checkWorkload) prepare(r *runCtx) error {
	rng := rand.New(rand.NewSource(r.seed))
	for k := 0; k < checkPoolSize; k++ {
		s, times := plantStructure(r.sys, rng)
		c, err := newCheckCase(r.sys, s, times, false)
		if err != nil {
			return err
		}
		w.cases = append(w.cases, c)
	}
	for _, pl := range drawExact(r.sys, rng) {
		c, err := newCheckCase(r.sys, pl.s, pl.times, true)
		if err != nil {
			return err
		}
		if pl.first {
			w.warmExact = append(w.warmExact, c)
		}
		w.exacts = append(w.exacts, c)
	}
	return nil
}

// planted is one drawn structure with the 2026 times it was planted on.
type planted struct {
	s     *core.EventStructure
	times map[core.Variable]int64
	first bool // the first draw of its cost class
}

// drawExact draws the exact pool: unrestricted plantStructure draws, each
// kept only while its cost class has slots left in exactStrata.
func drawExact(sys *granularity.System, rng *rand.Rand) []planted {
	left := map[string]int{}
	for class, n := range exactStrata {
		left[class] = n
	}
	var out []planted
	for len(out) < exactPoolSize {
		s, times := plantStructure(sys, rng)
		class := costClass(s)
		if left[class] == 0 {
			continue
		}
		out = append(out, planted{s: s, times: times, first: left[class] == exactStrata[class]})
		left[class]--
	}
	return out
}

// costClass names the granularity that sets an exact op's cost outside
// the search: "minute" if any TCG uses minutes, else "hour" if any uses
// hours, else "coarse".
func costClass(s *core.EventStructure) string {
	class := "coarse"
	for _, g := range s.Granularities() {
		switch g {
		case "minute":
			return "minute"
		case "hour":
			class = "hour"
		}
	}
	return class
}

// newCheckCase builds the request for a planted structure and computes the
// reference reply.
func newCheckCase(sys *granularity.System, s *core.EventStructure, times map[core.Variable]int64, exact bool) (*checkCase, error) {
	c := &checkCase{exact: exact, s: s, times: times}
	req := server.CheckRequest{Spec: *core.ToSpec(s, nil), FromYear: checkYear, ToYear: checkYear}
	if exact {
		req.Exact, req.Budget = true, exactBudget
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	c.body = body
	// The reference runs on the structure as the server decodes it.
	dreq, ds, err := server.DecodeCheckRequest(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("generated check request does not decode: %w", err)
	}
	res, err := cli.RunCheck(sys, ds, cli.CheckOptions{
		Exact: dreq.Exact, FromYear: dreq.FromYear, ToYear: dreq.ToYear,
		Engine: engine.Config{Budget: dreq.Budget},
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.EncodeJSON(&buf); err != nil {
		return nil, err
	}
	c.want = buf.Bytes()
	c.interrupted = res.Interrupted != nil
	if res.Exact != nil && res.Exact.Satisfiable {
		c.bad = checkWitness(sys, ds, res.Exact.Witness)
	}
	return c, nil
}

// checkWitness tests every TCG of s directly on an exact witness.
func checkWitness(sys *granularity.System, s *core.EventStructure, witness []cli.VarValue) error {
	at := map[core.Variable]int64{}
	for _, vv := range witness {
		var y, mo, d, h, mi, sec int
		if _, err := fmt.Sscanf(vv.Value, "%d-%d-%d %d:%d:%d", &y, &mo, &d, &h, &mi, &sec); err != nil {
			return fmt.Errorf("witness %s=%q: %v", vv.Var, vv.Value, err)
		}
		at[core.Variable(vv.Var)] = event.At(y, mo, d, h, mi, sec)
	}
	for _, e := range s.Edges() {
		for _, c := range s.Constraints(e.From, e.To) {
			if !c.Satisfied(sys, at[e.From], at[e.To]) {
				return fmt.Errorf("exact witness violates %s->%s %s", e.From, e.To, c)
			}
		}
	}
	return nil
}

// plantStructure draws 3-8 variables with 2026 times, links them by a
// spanning tree plus up to two extra arcs, and gives each arc 1-2 TCGs
// that the planted times satisfy, widened by a random slack.
func plantStructure(sys *granularity.System, rng *rand.Rand) (*core.EventStructure, map[core.Variable]int64) {
	n := 3 + rng.Intn(6)
	v := func(i int) core.Variable { return core.Variable(fmt.Sprintf("X%d", i)) }
	times := map[core.Variable]int64{v(0): event.At(checkYear, 1, 5, 0, 0, 0) + rng.Int63n(300*86400)}
	s := core.NewStructure()
	tcg := func(from, to core.Variable, g string) (core.TCG, bool) {
		a, ok1 := sys.TickOf(g, times[from])
		b, ok2 := sys.TickOf(g, times[to])
		if !ok1 || !ok2 || b < a {
			return core.TCG{}, false
		}
		d := b - a
		return core.MustTCG(max(0, d-rng.Int63n(checkSlack[g]+1)), d+rng.Int63n(checkSlack[g]+1), g), true
	}
	arc := func(from, to core.Variable, k int) {
		used := map[string]bool{}
		var cs []core.TCG
		for tries := 0; len(cs) < k && tries < 50; tries++ {
			g := checkGrans[rng.Intn(len(checkGrans))]
			if used[g] {
				continue
			}
			if c, ok := tcg(from, to, g); ok {
				cs = append(cs, c)
				used[g] = true
			}
		}
		if len(cs) == 0 {
			// day-et covers every second, so the planted pair always fits.
			c, _ := tcg(from, to, "day-et")
			cs = append(cs, c)
		}
		s.MustConstrain(from, to, cs...)
	}
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		times[v(i)] = times[v(j)] + rng.Int63n(3*86400)
		arc(v(j), v(i), 1+rng.Intn(2))
	}
	for extra := rng.Intn(3); extra > 0; extra-- {
		i := 1 + rng.Intn(n-1)
		j := rng.Intn(i)
		if len(s.Constraints(v(j), v(i))) > 0 || times[v(j)] > times[v(i)] {
			continue
		}
		arc(v(j), v(i), 1)
	}
	return s, times
}

func (w *checkWorkload) reset(r *runCtx, dir string) error { return nil }

func (w *checkWorkload) start(r *runCtx, dir string) error {
	td, err := startTempod(dir, false, r.tr)
	if err != nil {
		return err
	}
	w.td, w.c = td, newClient(td.http.url, r.tr)
	// Warm-up: every distinct propagation input once, and one exact input
	// of each cost class (the exact solver keeps nothing between requests,
	// so more would only lengthen set-up).
	warm := append(append([]*checkCase(nil), w.cases...), w.warmExact...)
	for _, c := range warm {
		if res := w.send(c); res.err != nil {
			return fmt.Errorf("warm-up: %w", res.err)
		}
	}
	return nil
}

func (w *checkWorkload) stop() error {
	if w.td == nil {
		return nil
	}
	w.c.close()
	err := w.td.close()
	w.td = nil
	return err
}

func (w *checkWorkload) caseOf(i int) *checkCase {
	if i%exactEvery == exactEvery-1 {
		return w.exacts[(i/exactEvery)%len(w.exacts)]
	}
	return w.cases[i%len(w.cases)]
}

func (w *checkWorkload) op(r *runCtx, i int) opResult { return w.send(w.caseOf(i)) }

func (w *checkWorkload) send(c *checkCase) opResult {
	res := opResult{class: primary, units: 1}
	if c.exact {
		res.class = second
	}
	t0 := time.Now()
	code, body, err := w.c.do(http.MethodPost, "/v1/check", c.body)
	res.dur = time.Since(t0)
	switch {
	case err != nil:
		res.err = err
	case code != http.StatusOK:
		res.err = fmt.Errorf("check: HTTP %d: %s", code, body)
	case !bytes.Equal(body, c.want):
		res.err = fmt.Errorf("check: reply differs from cli.RunCheck:\n got %s\nwant %s", body, c.want)
	case c.bad != nil:
		res.err = c.bad
	}
	return res
}

func (w *checkWorkload) counters() []*engine.Counters {
	return []*engine.Counters{w.td.srv.Counters()}
}

func (w *checkWorkload) redrive(r *runCtx, rec *opRecord) {
	c := w.caseOf(rec.i)
	d := timed(r, "redrive.server.decode", rec.opSpan, func() {
		server.DecodeCheckRequest(bytes.NewReader(c.body))
	})
	r.layer.add("server.decode_us", us(d))
	var pairs []tickPair
	for _, e := range c.s.Edges() {
		for _, tc := range c.s.Constraints(e.From, e.To) {
			pairs = append(pairs, tickPair{tc.Gran, c.times[e.From]}, tickPair{tc.Gran, c.times[e.To]})
		}
	}
	redriveTicks(r, rec.opSpan, pairs)
	redriveGrans(r, rec.opSpan, c.s.Granularities(), c.times[c.s.Variables()[0]])
}

func (w *checkWorkload) analyze(r *runCtx, rec *opRecord, g *opSpans) {
	c := w.caseOf(rec.i)
	d := rec.delta
	prop, search := d.stages["propagate"], d.stages["exact.search"]
	r.layer.add("propagate.ms", ms(prop))
	r.layer.add("propagate.rounds", float64(d.counts["propagate.rounds"]))
	r.layer.add("propagate.conversions", float64(d.counts["propagate.conversions"]))
	r.layer.add("stp.relaxations", float64(d.counts["stp.relaxations"]))
	r.layer.add("server.rejected", float64(d.countPrefix("server.rejected.")))
	if c.exact {
		r.layer.add("exact.search_ms", ms(search))
		r.layer.add("exact.nodes", float64(d.counts["exact.nodes"]))
		r.layer.add("exact.interrupted_ratio", b2f(c.interrupted))
		r.layer.add("exact.outside_search_ms", ms(g.dur[spanWorker]-search-prop))
	} else {
		r.layer.add("server.self_us", us(g.dur[spanWorker]-d.stageTotal()))
	}
	residual(r, rec, g, 0)
}

func (w *checkWorkload) totals(r *runCtx) {}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
