// Command tempobench is the repository's end-to-end benchmark. It builds
// tempod's serving stack in-process (server.New, and cluster.New for the
// live workload), drives it from one closed-loop client over one keep-alive
// loopback HTTP connection, verifies every reply against a reference
// computed outside the timed region, and prints the end-to-end metrics (or,
// with --trace 1, the per-layer metrics of a separate traced phase).
//
//	go run . --workload check|live|mine|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. METRICS.md describes the
// workloads, every metric and which end-to-end figure each layer metric
// should move.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/granularity"
)

// heldOutSeed is the seed kept aside while the benchmark was tuned; a
// later claim should be rechecked on it as well as on the seed it was
// made with.
const heldOutSeed = 20260101

// setupRuns is how many times a run builds its stack and warms it up;
// setup_s is the median.
const setupRuns = 5

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("tempobench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "check, live, mine or all")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "nominal measured seconds; sets the fixed op count")
	fs.IntVar(&trace, "trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	if o.workload != "all" && newWorkload(o.workload) == nil {
		return o, fmt.Errorf("unknown --workload %q (want check, live, mine or all)", o.workload)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempobench:", err)
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempobench:", err)
		os.Exit(1)
	}
	res.print(os.Stdout)
	if !res.Correct {
		os.Exit(1)
	}
}

// runAll runs each workload in its own child process, one after another,
// so no workload inherits another's caches or peak memory.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tempobench:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		trace := "0"
		if o.trace {
			trace = "1"
		}
		cmd := exec.Command(self, "--workload", w, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds), "--trace", trace)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "tempobench: workload %s: %v\n", w, err)
			code = 1
		}
	}
	return code
}

var workloadNames = []string{"check", "live", "mine"}

// workload is one traffic mix against one serving stack.
type workload interface {
	// rate is the nominal op rate on the bench machine: a run does
	// rate*seconds ops per phase, a fixed amount of work per seed.
	rate() int
	// prepare generates the inputs of every op from the seed, computes the
	// reference replies and any starting data dir. It is not timed.
	prepare(r *runCtx) error
	// reset lays down the starting data dir for one stack (not timed).
	reset(r *runCtx, dir string) error
	// start builds the stack on dir and warms it up: one setup_s sample.
	start(r *runCtx, dir string) error
	// stop tears the stack down; it is safe to call twice.
	stop() error
	// op runs op i and verifies its reply.
	op(r *runCtx, i int) opResult
	// counters are the stack's engine counter sets, summed for per-op
	// deltas in the traced phase.
	counters() []*engine.Counters
	// redrive times the library calls behind traced op i on the op's own
	// inputs, after the op, recording spans and layer samples.
	redrive(r *runCtx, rec *opRecord)
	// analyze derives the span-based layer samples of traced op i once
	// every span is closed.
	analyze(r *runCtx, rec *opRecord, g *opSpans)
	// totals adds whole-run layer metrics (set-up, placement, store size).
	totals(r *runCtx)
}

func newWorkload(name string) workload {
	switch name {
	case "check":
		return &checkWorkload{}
	case "live":
		return &liveWorkload{}
	case "mine":
		return &mineWorkload{}
	}
	return nil
}

// Op classes.
const (
	primary = 0
	second  = 1
)

// opResult is one client-timed op: a request/response exchange (or, for a
// polled job, the exchanges up to its final state) and its verification.
type opResult struct {
	class int
	dur   time.Duration
	// units of work the op completed: checks, acknowledged events, or
	// jobs plus refreshes.
	units int
	err   error // nil when every reply matched its reference
}

// opRecord keeps a traced op for analysis after the phase.
type opRecord struct {
	i      int
	res    opResult
	opSpan int
	delta  cut
	// redrive is the redriven time the workload subtracts from the worker
	// span to leave the server's own time.
	redrive time.Duration
}

// runCtx is the state one run shares with its workload.
type runCtx struct {
	seed  int64
	ops   int // ops per phase
	total int // ops over all phases
	root  string
	tr    *tracer
	sys   *granularity.System // the benchmark's own system, for references and redrives
	layer means
}

// result is one run's report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	meta   map[string]any
	errors []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (res *result) print(w io.Writer) {
	for _, e := range res.errors {
		fmt.Fprintln(w, "# mismatch:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	// Both hold only strings, numbers and bools, so marshalling cannot fail.
	meta, _ := json.Marshal(res.meta)
	fmt.Fprintf(w, "# meta %s\n", meta)
	line, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", line)
}

// metricDef is one metric BENCHMARK.json lists.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricLists reads the end-to-end and per-layer metrics, with their units,
// from BENCHMARK.json at the checkout root, the directory the benchmark
// runs from.
func metricLists() (endToEnd, perLayer []metricDef, err error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, err
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return b.EndToEnd, b.PerLayer, nil
}

func run(o options) (*result, error) {
	w := newWorkload(o.workload)
	endToEnd, perLayer, err := metricLists()
	if err != nil {
		return nil, err
	}
	sys, err := cli.LoadSystem("", nil)
	if err != nil {
		return nil, err
	}
	r := &runCtx{
		seed:  o.seed,
		ops:   w.rate() * o.seconds,
		root:  filepath.Join(".bench_build", "tempobench-data", fmt.Sprintf("%s-%d", o.workload, os.Getpid())),
		tr:    newTracer(),
		sys:   sys,
		layer: means{},
	}
	r.total = r.ops
	if o.trace {
		r.total = 2 * r.ops
	}
	if err := os.MkdirAll(r.root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.root)
	tp := time.Now()
	if err := w.prepare(r); err != nil {
		return nil, fmt.Errorf("preparing %s: %w", o.workload, err)
	}
	fmt.Fprintf(os.Stderr, "tempobench: %s prepared in %.2fs\n", o.workload, time.Since(tp).Seconds())
	defer w.stop()

	var setups []float64
	for k := 0; k < setupRuns; k++ {
		dir := filepath.Join(r.root, fmt.Sprintf("stack%d", k))
		if err := w.reset(r, dir); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := w.start(r, dir); err != nil {
			return nil, fmt.Errorf("starting %s: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fmt.Fprintf(os.Stderr, "tempobench: set-up %d took %.3fs\n", k, setups[k])
		if k < setupRuns-1 {
			if err := w.stop(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
	}

	res := &result{Metrics: map[string]metricValue{}}
	var lat [2][]float64
	var opDur [2]time.Duration
	verified, units := 0, 0
	record := func(phase int, rs opResult) {
		res.Attempted++
		if rs.err != nil {
			res.Failed++
			if len(res.errors) < 5 {
				res.errors = append(res.errors, rs.err.Error())
			}
			return
		}
		opDur[phase] += rs.dur
		if phase == 0 {
			verified++
			units += rs.units
			lat[rs.class] = append(lat[rs.class], float64(rs.dur.Nanoseconds())/1e6)
		}
	}

	// Measured phase: tracing off.
	steal0, ticks0 := cpuTicks()
	cpu0, alloc0 := cpuTime(), readAllocs()
	t0 := time.Now()
	for i := 0; i < r.ops; i++ {
		record(0, w.op(r, i))
	}
	wall := time.Since(t0)
	cpu, alloc1 := cpuTime()-cpu0, readAllocs()
	steal1, ticks1 := cpuTicks()
	heap := liveHeapMB()
	rss := peakRSSMB()
	unitsUntraced := units

	// Traced phase: the same op stream continues with spans and counter
	// deltas recorded, then every traced op's library calls are re-driven.
	var recs []*opRecord
	tracedUnits := 0
	if o.trace {
		r.tr.on.Store(true)
		for i := r.ops; i < r.total; i++ {
			c0 := takeCut(w.counters()...)
			id := r.tr.beginOp(i, spanOp)
			rs := w.op(r, i)
			r.tr.end(id)
			rec := &opRecord{i: i, res: rs, opSpan: id, delta: takeCut(w.counters()...).sub(c0)}
			record(1, rs)
			if rs.err == nil {
				tracedUnits += rs.units
				w.redrive(r, rec)
				recs = append(recs, rec)
			}
		}
		r.tr.on.Store(false)
	}
	if err := w.stop(); err != nil {
		return nil, err
	}

	res.Correct = res.Failed == 0
	samples := map[string]any{}
	for c, name := range []string{"primary", "second"} {
		s := summarize(lat[c])
		samples[name] = map[string]any{"n": s.n, "tail": s.tailName}
	}
	res.meta = map[string]any{
		"workload": o.workload, "seed": o.seed, "held_out_seed": heldOutSeed,
		"commit": commit(), "source": sourceDigest("."), "go": runtime.Version(),
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"ops": r.ops, "measured_s": wall.Seconds(), "samples": samples,
		"steal_ratio": ratio(float64(steal1-steal0), float64(ticks1-ticks0)),
		"steal_ticks": steal1 - steal0,
		"setup_runs":  setupRuns, "trace": o.trace,
	}

	if !o.trace {
		p, s := summarize(lat[primary]), summarize(lat[second])
		if p.tailName == "" || s.tailName == "" {
			return nil, fmt.Errorf("too few samples for a tail percentile (primary %d, second %d); raise --seconds", p.n, s.n)
		}
		values := map[string]float64{
			"setup_s":          median(setups),
			"throughput_per_s": float64(units) / wall.Seconds(),
			"p50_ms":           p.p50,
			"tail_ms":          p.tail,
			"second_p50_ms":    s.p50,
			"second_tail_ms":   s.tail,
			"cpu_ms_per_op":    cpu.Seconds() * 1000 / float64(r.ops),
			"peak_rss_mb":      rss,
			"live_heap_mb":     heap,
			"correct_ratio":    float64(verified) / float64(r.ops),
		}
		for _, m := range endToEnd {
			v, ok := values[m.Name]
			if !ok {
				return nil, fmt.Errorf("BENCHMARK.json lists end-to-end metric %q, which tempobench does not measure", m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		if len(res.Metrics) != len(values) {
			return nil, fmt.Errorf("BENCHMARK.json lists %d distinct end-to-end metrics, tempobench measures %d", len(res.Metrics), len(values))
		}
		return res, nil
	}

	spans := r.tr.snapshot()
	if err := writeTrace(o, spans, recs); err != nil {
		return nil, err
	}
	groups := groupByOp(spans)
	for _, rec := range recs {
		g := groups[rec.i]
		if g == nil {
			return nil, errors.New("traced op has no spans")
		}
		w.analyze(r, rec, g)
	}
	w.totals(r)
	ops := float64(r.ops)
	r.layer.add("allocs_per_op", float64(alloc1.objects-alloc0.objects)/ops)
	r.layer.add("alloc_kb_per_op", float64(alloc1.bytes-alloc0.bytes)/1024/ops)
	r.layer.add("gc_cycles_per_kop", float64(alloc1.gcs-alloc0.gcs)*1000/ops)
	r.layer.add("trace.overhead_ratio", ratio(
		ratio(float64(tracedUnits), opDur[1].Seconds()),
		ratio(float64(unitsUntraced), opDur[0].Seconds())))
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.Name] = true
		res.Metrics[m.Name] = metricValue{Value: r.layer.value(m.Name), Unit: m.Unit}
	}
	for name := range r.layer {
		if !listed[name] {
			return nil, fmt.Errorf("tempobench measures per-layer metric %q, which BENCHMARK.json does not list", name)
		}
	}
	return res, nil
}

// writeTrace writes a traced run's spans, one JSON object a line, to
// .bench_build/tempobench-traces/<workload>-<seed>.jsonl; each op's span
// carries the engine counter and stage deltas measured around it.
func writeTrace(o options, spans []span, recs []*opRecord) error {
	dir := filepath.Join(".bench_build", "tempobench-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	deltas := map[int]cut{}
	for _, rec := range recs {
		deltas[rec.opSpan] = rec.delta
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range spans {
		line := map[string]any{"op": s.op, "id": s.id, "parent": s.parent, "name": s.name,
			"start_us": us(s.start), "end_us": us(s.end)}
		if d, ok := deltas[s.id]; ok {
			line["counters"], line["stages_us"] = d.counts, stagesUS(d)
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%d.jsonl", o.workload, o.seed)), buf.Bytes(), 0o644)
}

func stagesUS(d cut) map[string]float64 {
	out := make(map[string]float64, len(d.stages))
	for k, v := range d.stages {
		out[k] = us(v)
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// residual records the client span minus every attributed layer for one
// traced op: the client's own time not covered by a server-side span, less
// attributed work that ran outside any span (a job's engine stages).
func residual(r *runCtx, rec *opRecord, g *opSpans, outside time.Duration) {
	name := "residual_ms.primary"
	if rec.res.class == second {
		name = "residual_ms.second"
	}
	r.layer.add(name, ms(g.self[spanOp]+g.self[spanRequest]-outside))
}

func discardLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
