// Command benchgate runs the root package's gated micro-benchmarks once
// and checks each against the one gate table below.
//
// Usage, from the repository root:
//
//	go run ./scripts/benchgate smoke   # short run, machine-independent gates; writes nothing
//	go run ./scripts/benchgate full    # every gate, then one history line per benchmark
//
// Each benchmark row names its layer and its gates: a bound on a metric
// the run reports (ns/op, allocs/op or a custom unit such as replayed/op),
// a ratio against a partner row, a condition on the machine's core count,
// or a bound against the median of the last five history rows of the same
// benchmark, core count and GOMAXPROCS. A row missing from the run fails.
// A gate the machine cannot judge (too few cores, no history of the same
// shape) reports UNVERIFIED and does not fail the run.
//
// A full run that passes appends one JSON line per benchmark to
// BENCH_HISTORY.jsonl: commit, layer, name, every metric by unit, cores,
// GOMAXPROCS, cpu and Go version. A failing run records nothing, so a
// regression never becomes the baseline it is judged against.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// historyFile is the one history of full runs, relative to the repository
// root.
const historyFile = "BENCH_HISTORY.jsonl"

// historyWindow is how many trailing rows of one shape the median reads.
const historyWindow = 5

// row is one benchmark measurement: a line of `go test -bench` output or
// of the history file.
type row struct {
	Commit     string             `json:"commit,omitempty"`
	Layer      string             `json:"layer,omitempty"`
	Name       string             `json:"name"`
	Metrics    map[string]float64 `json:"metrics"`
	Cores      int                `json:"cores"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPU        string             `json:"cpu,omitempty"`
	Go         string             `json:"go,omitempty"`
}

// verdict orders gate outcomes from best to worst.
type verdict int

const (
	pass verdict = iota
	unverified
	fail
)

func (v verdict) String() string {
	return [...]string{"PASS", "UNVERIFIED", "FAIL"}[v]
}

// run is what a gate sees: this run's rows by name, the machine's core
// count and the history recorded before the run.
type run struct {
	rows    map[string]row
	cores   int
	history []row
}

// A gate checks one row of a run. smoke marks the machine-independent
// gates a short run can judge.
type gate struct {
	desc  string
	smoke bool
	check func(r row, rn *run) (verdict, string)
}

// smoke marks g as checked by smoke runs too.
func smoke(g gate) gate {
	g.smoke = true
	return g
}

// atMost bounds a metric of the row at limit; under bounds it strictly.
func atMost(unit string, limit float64) gate { return bound(unit, limit, false) }
func under(unit string, limit float64) gate  { return bound(unit, limit, true) }

func bound(unit string, limit float64, strict bool) gate {
	op := "<="
	if strict {
		op = "<"
	}
	return gate{desc: fmt.Sprintf("%s %s %g", unit, op, limit), check: func(r row, _ *run) (verdict, string) {
		v, ok := r.Metrics[unit]
		switch {
		case !ok:
			return fail, "no " + unit + " reported"
		case v > limit || strict && v == limit:
			return fail, num(v) + " " + unit
		}
		return pass, num(v) + " " + unit
	}}
}

// ratio bounds the row's ns/op over the partner row's: at least lo when
// lo > 0, at most hi when hi > 0.
func ratio(partner string, lo, hi float64) gate {
	desc := fmt.Sprintf("ns/op >= %gx %s", lo, partner)
	if hi > 0 {
		desc = fmt.Sprintf("ns/op <= %gx %s", hi, partner)
	}
	return gate{desc: desc, check: func(r row, rn *run) (verdict, string) {
		p, ok := rn.rows[partner]
		if !ok || p.Metrics["ns/op"] <= 0 {
			return fail, "partner " + partner + " missing"
		}
		x := r.Metrics["ns/op"] / p.Metrics["ns/op"]
		msg := fmt.Sprintf("%.2fx", x)
		if lo > 0 && x < lo || hi > 0 && x > hi {
			return fail, msg
		}
		return pass, msg
	}}
}

// onCores applies g only on machines with at least n cores; on fewer its
// verdict is unverified.
func onCores(n int, g gate) gate {
	check := g.check
	g.desc = fmt.Sprintf("%s on >= %d cores", g.desc, n)
	g.check = func(r row, rn *run) (verdict, string) {
		if rn.cores < n {
			return unverified, fmt.Sprintf("%d cores", rn.cores)
		}
		return check(r, rn)
	}
	return g
}

// trailingMedian bounds ns/op at factor times the median of the last
// historyWindow history rows with the row's name, core count and
// GOMAXPROCS.
func trailingMedian(factor float64) gate {
	desc := fmt.Sprintf("ns/op <= %gx median of last %d same-shape rows", factor, historyWindow)
	return gate{desc: desc, check: func(r row, rn *run) (verdict, string) {
		var past []float64
		for _, h := range rn.history {
			if h.Name == r.Name && h.Cores == rn.cores && h.GOMAXPROCS == r.GOMAXPROCS {
				past = append(past, h.Metrics["ns/op"])
			}
		}
		if len(past) == 0 {
			return unverified, fmt.Sprintf("no history at %d cores, GOMAXPROCS %d", rn.cores, r.GOMAXPROCS)
		}
		med := median(past[max(0, len(past)-historyWindow):])
		x := r.Metrics["ns/op"] / med
		msg := fmt.Sprintf("%s ns/op = %.2fx median %s of %d", num(r.Metrics["ns/op"]), x, num(med), min(len(past), historyWindow))
		if x > factor {
			return fail, msg
		}
		return pass, msg
	}}
}

// num prints a metric without an exponent.
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// bench is one row of the gate table: a root-package benchmark, the layer
// it measures and its gates.
type bench struct {
	layer, name string
	gates       []gate
}

// table is every gated benchmark in run order. The bounds:
//   - TAG step allocs/op <= 800 is ~2x the 315 measured when it was set;
//     its 78,826 ns/op ceiling is the deleted interpreter's last 236,477
//     ns/op over the 3x the compiled core had to beat it by.
//   - store append allocs/op <= 16 is ~5x the 3 measured, under any
//     per-append buffer copy.
//   - the incremental miner's >= 20x over a re-mine and the migration's
//     replay under the checkpoint stride (8) fail only if history is
//     rescanned; they measure ~1000x and ~0.1.
//   - the parallel scans' >= 2x is judged on 4 or more cores only.
var table = []bench{
	{"granularity", "BenchmarkCoverTableLookup", nil},
	{"granularity", "BenchmarkCoverDirect", nil},
	{"granularity", "BenchmarkFig3CoverTable", nil},
	{"granularity", "BenchmarkFig3CoverDirect", []gate{ratio("BenchmarkFig3CoverTable", 5, 0)}},
	{"granularity", "BenchmarkZonedDayTickTable", []gate{smoke(atMost("allocs/op", 0))}},
	{"granularity", "BenchmarkFiscalMonthTickTable", []gate{smoke(atMost("allocs/op", 0))}},
	{"granularity", "BenchmarkFiscalMonthTickDirect", nil},
	{"granularity", "BenchmarkSessionTickTable", []gate{smoke(atMost("allocs/op", 0))}},
	{"tag", "BenchmarkTAGBatchSerial", []gate{smoke(atMost("allocs/op", 800)), atMost("ns/op", 78826), trailingMedian(1.20)}},
	{"tag", "BenchmarkTAGBatchParallel", []gate{trailingMedian(1.20)}},
	{"mining", "BenchmarkE13MiningSerial", []gate{trailingMedian(1.20), onCores(4, ratio("BenchmarkE13MiningParallel", 2, 0))}},
	{"mining", "BenchmarkE13MiningParallel", []gate{trailingMedian(1.20)}},
	{"mining", "BenchmarkIncrementalAppend100k", nil},
	{"mining", "BenchmarkBatchRemine100k", []gate{smoke(ratio("BenchmarkIncrementalAppend100k", 20, 0))}},
	{"store", "BenchmarkStoreAppendNoSync", []gate{smoke(atMost("allocs/op", 16))}},
	{"store", "BenchmarkStoreAppendSynced", []gate{smoke(atMost("allocs/op", 16))}},
	{"store", "BenchmarkStoreRecover", nil},
	{"server", "BenchmarkStandaloneCheck", nil},
	{"cluster", "BenchmarkRouterProxyCheck", []gate{ratio("BenchmarkStandaloneCheck", 0, 2)}},
	{"cluster", "BenchmarkSessionMigration10k", []gate{smoke(under("replayed/op", 8))}},
}

// check applies the table's gates (only the smoke ones when smokeOnly) to
// a run, writing one line per gate, and reports whether any failed.
func check(w io.Writer, tab []bench, rn *run, smokeOnly bool) bool {
	failed := false
	for _, b := range tab {
		r, ok := rn.rows[b.name]
		if !ok {
			fmt.Fprintf(w, "%-10s %s: missing from the run\n", fail, b.name)
			failed = true
			continue
		}
		for _, g := range b.gates {
			if smokeOnly && !g.smoke {
				continue
			}
			v, msg := g.check(r, rn)
			fmt.Fprintf(w, "%-10s %s: %s (gate: %s)\n", v, b.name, msg, g.desc)
			failed = failed || v == fail
		}
	}
	return failed
}

// parse reads `go test -bench` output: the cpu line, and a row per result
// line "BenchmarkName-P  N  value unit  value unit ...", where the -P
// suffix is GOMAXPROCS (absent when it is 1).
func parse(out []byte) (cpu string, rows []row, err error) {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		r := row{Name: f[0], GOMAXPROCS: 1, Metrics: map[string]float64{}}
		if i := strings.LastIndexByte(f[0], '-'); i > 0 {
			if p, err := strconv.Atoi(f[0][i+1:]); err == nil {
				r.Name, r.GOMAXPROCS = f[0][:i], p
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return "", nil, fmt.Errorf("benchgate: bad value in %q: %w", line, err)
			}
			r.Metrics[f[i+1]] = v
		}
		rows = append(rows, r)
	}
	return cpu, rows, sc.Err()
}

// readHistory loads the history file; a missing file is an empty history.
func readHistory(path string) ([]row, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rows []row
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r row
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("benchgate: %s line %d: %w", path, i+1, err)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// record renders rows as history lines stamped with the commit.
func record(rows []row, commit string) []byte {
	var buf bytes.Buffer
	for _, r := range rows {
		r.Commit = commit
		line, _ := json.Marshal(r) // a row always encodes
		buf.Write(append(line, '\n'))
	}
	return buf.Bytes()
}

// commit names the checked-out commit, marked +dirty when tracked files
// other than the history differ from it.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no", "--", ".", ":!"+historyFile).Output()
	if err != nil || len(st) > 0 {
		c += "+dirty"
	}
	return c
}

// pattern is the -bench expression selecting exactly the table's rows.
func pattern(tab []bench) string {
	names := make([]string, len(tab))
	for i, b := range tab {
		names[i] = b.name
	}
	return "^(" + strings.Join(names, "|") + ")$"
}

func main() {
	if len(os.Args) != 2 || os.Args[1] != "smoke" && os.Args[1] != "full" {
		fmt.Fprintln(os.Stderr, "usage: go run ./scripts/benchgate smoke|full")
		os.Exit(2)
	}
	if err := gateRun(os.Args[1] == "smoke"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func gateRun(smokeOnly bool) error {
	history, err := readHistory(historyFile)
	if err != nil {
		return err
	}
	benchtime := "2s"
	if smokeOnly {
		benchtime = "5x"
	}
	args := []string{"test", "-run", "^$", "-bench", pattern(table), "-benchmem", "-benchtime", benchtime, "-timeout", "30m", "."}
	fmt.Println(">> go", strings.Join(args, " "))
	var out bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stdout, cmd.Stderr = io.MultiWriter(os.Stdout, &out), os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("benchgate: go test: %w", err)
	}
	lines, err := evaluate(os.Stdout, table, out.Bytes(), history, runtime.NumCPU(), smokeOnly)
	if err != nil || smokeOnly {
		return err
	}
	f, err := os.OpenFile(historyFile, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(record(lines, commit())); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("benchgate: recorded %d rows in %s\n", len(lines), historyFile)
	return nil
}

// evaluate checks `go test -bench` output against the table, writing one
// line per gate, and returns the table's rows with their layer, cores, cpu
// and Go version filled in. It fails when a gate fails.
func evaluate(w io.Writer, tab []bench, out []byte, history []row, cores int, smokeOnly bool) ([]row, error) {
	cpu, rows, err := parse(out)
	if err != nil {
		return nil, err
	}
	rn := &run{rows: map[string]row{}, cores: cores, history: history}
	for _, r := range rows {
		rn.rows[r.Name] = r
	}
	if check(w, tab, rn, smokeOnly) {
		return nil, fmt.Errorf("benchgate: FAILED; nothing recorded")
	}
	fmt.Fprintf(w, "benchgate: %d benchmarks OK\n", len(tab))
	got := make([]row, len(tab))
	for i, b := range tab {
		r := rn.rows[b.name]
		r.Layer, r.Cores, r.CPU, r.Go = b.layer, cores, cpu, runtime.Version()
		got[i] = r
	}
	return got, nil
}
