package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) CPU @ 2.20GHz
BenchmarkTAGBatchSerial-2           	   50000	     50950 ns/op	   21504 B/op	     159 allocs/op
BenchmarkSessionMigration10k-2      	      30	  68495636 ns/op	         0.06500 replayed/op	 1234567 B/op	    8910 allocs/op
BenchmarkZonedDayTickTable          	20000000	        78.76 ns/op	       0 B/op	       0 allocs/op
BenchmarkE6TAGMatching-2
PASS
ok  	repro	12.345s
`

func TestParse(t *testing.T) {
	cpu, rows, err := parse([]byte(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if cpu != "Intel(R) Xeon(R) CPU @ 2.20GHz" {
		t.Errorf("cpu %q", cpu)
	}
	if len(rows) != 3 {
		t.Fatalf("parsed %d rows, want 3: %+v", len(rows), rows)
	}
	want := []row{
		{Name: "BenchmarkTAGBatchSerial", GOMAXPROCS: 2, Metrics: map[string]float64{"ns/op": 50950, "B/op": 21504, "allocs/op": 159}},
		{Name: "BenchmarkSessionMigration10k", GOMAXPROCS: 2, Metrics: map[string]float64{"ns/op": 68495636, "replayed/op": 0.065, "B/op": 1234567, "allocs/op": 8910}},
		{Name: "BenchmarkZonedDayTickTable", GOMAXPROCS: 1, Metrics: map[string]float64{"ns/op": 78.76, "B/op": 0, "allocs/op": 0}},
	}
	for i, w := range want {
		g := rows[i]
		if g.Name != w.Name || g.GOMAXPROCS != w.GOMAXPROCS || len(g.Metrics) != len(w.Metrics) {
			t.Errorf("row %d = %+v, want %+v", i, g, w)
			continue
		}
		for unit, v := range w.Metrics {
			if g.Metrics[unit] != v {
				t.Errorf("row %d %s = %g, want %g", i, unit, g.Metrics[unit], v)
			}
		}
	}
}

func TestParseRejectsBadValue(t *testing.T) {
	if _, _, err := parse([]byte("BenchmarkX-2 10 1.2.3 ns/op\n")); err == nil {
		t.Fatal("malformed value accepted")
	}
}

// probe builds a one-benchmark run: the row under test, its partner and
// the history.
func probe(metrics map[string]float64, partner map[string]float64, cores int, history ...row) (row, *run) {
	r := row{Name: "BenchmarkA", GOMAXPROCS: 2, Metrics: metrics}
	rn := &run{rows: map[string]row{"BenchmarkA": r}, cores: cores, history: history}
	if partner != nil {
		rn.rows["BenchmarkB"] = row{Name: "BenchmarkB", GOMAXPROCS: 2, Metrics: partner}
	}
	return r, rn
}

func past(name string, cores, procs int, ns float64) row {
	return row{Name: name, Cores: cores, GOMAXPROCS: procs, Metrics: map[string]float64{"ns/op": ns}}
}

func ns(v float64) map[string]float64 { return map[string]float64{"ns/op": v} }

// TestGateKinds runs each kind of gate on a synthetic row that meets it
// and on one that breaks it.
func TestGateKinds(t *testing.T) {
	history := []row{past("BenchmarkA", 2, 2, 100)}
	cases := []struct {
		name          string
		g             gate
		metrics, peer map[string]float64
		cores         int
		want          verdict
	}{
		{"ns ceiling met", atMost("ns/op", 78826), ns(78826), nil, 2, pass},
		{"ns ceiling broken", atMost("ns/op", 78826), ns(78827), nil, 2, fail},
		{"allocs bound met", atMost("allocs/op", 0), map[string]float64{"allocs/op": 0}, nil, 2, pass},
		{"allocs bound broken", atMost("allocs/op", 0), map[string]float64{"allocs/op": 1}, nil, 2, fail},
		{"allocs missing", atMost("allocs/op", 800), ns(1), nil, 2, fail},
		{"custom metric met", under("replayed/op", 8), map[string]float64{"replayed/op": 7.99}, nil, 2, pass},
		{"custom metric at bound", under("replayed/op", 8), map[string]float64{"replayed/op": 8}, nil, 2, fail},
		{"custom metric missing", under("replayed/op", 8), ns(1), nil, 2, fail},
		{"ratio floor met", ratio("BenchmarkB", 20, 0), ns(2000), ns(100), 2, pass},
		{"ratio floor broken", ratio("BenchmarkB", 20, 0), ns(1999), ns(100), 2, fail},
		{"ratio ceiling met", ratio("BenchmarkB", 0, 2), ns(200), ns(100), 2, pass},
		{"ratio ceiling broken", ratio("BenchmarkB", 0, 2), ns(201), ns(100), 2, fail},
		{"ratio partner missing", ratio("BenchmarkB", 0, 2), ns(1), nil, 2, fail},
		{"cores: too few", onCores(4, ratio("BenchmarkB", 2, 0)), ns(100), ns(100), 2, unverified},
		{"cores: enough, met", onCores(4, ratio("BenchmarkB", 2, 0)), ns(200), ns(100), 4, pass},
		{"cores: enough, broken", onCores(4, ratio("BenchmarkB", 2, 0)), ns(199), ns(100), 4, fail},
		{"history met", trailingMedian(1.20), ns(120), nil, 2, pass},
		{"history broken", trailingMedian(1.20), ns(121), nil, 2, fail},
	}
	for _, tc := range cases {
		r, rn := probe(tc.metrics, tc.peer, tc.cores, history...)
		if got, msg := tc.g.check(r, rn); got != tc.want {
			t.Errorf("%s: %v (%s), want %v", tc.name, got, msg, tc.want)
		}
	}
}

// TestTrailingMedianReadsOnlySameShape: rows of another benchmark, core
// count or GOMAXPROCS, and same-shape rows older than the last five, do
// not move the median.
func TestTrailingMedianReadsOnlySameShape(t *testing.T) {
	history := []row{
		past("BenchmarkA", 2, 2, 1), // older than the last five
		past("BenchmarkA", 2, 2, 100),
		past("BenchmarkA", 1, 1, 1),    // other cores and GOMAXPROCS
		past("BenchmarkA", 2, 1, 1),    // other GOMAXPROCS
		past("BenchmarkA", 4, 2, 1),    // other cores
		past("BenchmarkB", 2, 2, 1),    // other benchmark
		past("BenchmarkA", 2, 2, 90),   //
		past("BenchmarkA", 2, 2, 100),  // the last five same-shape rows:
		past("BenchmarkA", 2, 2, 110),  // 100 90 100 110 1000, median 100
		past("BenchmarkA", 2, 2, 1000), //
	}
	g := trailingMedian(1.20)
	for _, tc := range []struct {
		ns   float64
		want verdict
	}{{120, pass}, {121, fail}} {
		r, rn := probe(ns(tc.ns), nil, 2, history...)
		if got, msg := g.check(r, rn); got != tc.want {
			t.Errorf("ns/op %g: %v (%s), want %v", tc.ns, got, msg, tc.want)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("even median = %g, want 2.5", m)
	}
}

// TestNoHistoryIsUnverifiedAndRecorded: a shape the history has never
// seen (here: 2 cores against cores-1 seed rows) reports UNVERIFIED, the
// run passes, and every table row is returned for the history.
func TestNoHistoryIsUnverifiedAndRecorded(t *testing.T) {
	tab := []bench{
		{"tag", "BenchmarkTAGBatchSerial", []gate{smoke(atMost("allocs/op", 800)), trailingMedian(1.20)}},
		{"cluster", "BenchmarkSessionMigration10k", []gate{smoke(under("replayed/op", 8))}},
	}
	history := []row{past("BenchmarkTAGBatchSerial", 1, 2, 1)}
	var log bytes.Buffer
	rows, err := evaluate(&log, tab, []byte(sampleOutput), history, 2, false)
	if err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	if !strings.Contains(log.String(), "UNVERIFIED BenchmarkTAGBatchSerial: no history at 2 cores, GOMAXPROCS 2") {
		t.Errorf("no UNVERIFIED line:\n%s", log.String())
	}
	lines := strings.Split(strings.TrimSpace(string(record(rows, "abc1234"))), "\n")
	if len(lines) != len(tab) {
		t.Fatalf("recorded %d lines, want %d", len(lines), len(tab))
	}
	var got row
	if err := json.Unmarshal([]byte(lines[0]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Commit != "abc1234" || got.Layer != "tag" || got.Name != "BenchmarkTAGBatchSerial" ||
		got.Cores != 2 || got.GOMAXPROCS != 2 || got.CPU == "" || got.Go == "" ||
		got.Metrics["ns/op"] != 50950 || got.Metrics["B/op"] != 21504 || got.Metrics["allocs/op"] != 159 {
		t.Errorf("recorded %+v", got)
	}
}

// TestMissingRowFails: a table row absent from the run fails in both
// modes, and a smoke run skips the full-only gates.
func TestMissingRowFails(t *testing.T) {
	tab := []bench{
		{"tag", "BenchmarkTAGBatchSerial", []gate{atMost("ns/op", 1)}},
		{"store", "BenchmarkStoreAppendSynced", nil},
	}
	for _, smokeOnly := range []bool{true, false} {
		_, err := evaluate(io.Discard, tab, []byte(sampleOutput), nil, 2, smokeOnly)
		if err == nil {
			t.Errorf("smoke=%v: run without BenchmarkStoreAppendSynced passed", smokeOnly)
		}
	}
	tab = tab[:1]
	if _, err := evaluate(io.Discard, tab, []byte(sampleOutput), nil, 2, true); err != nil {
		t.Errorf("smoke checked a full-only gate: %v", err)
	}
	if _, err := evaluate(io.Discard, tab, []byte(sampleOutput), nil, 2, false); err == nil {
		t.Error("full run passed a broken ns/op ceiling")
	}
}

// TestTableMatchesBenchmarks keeps the table in step with the root
// package: every row and partner is a benchmark there, no row repeats,
// and every *TickTable benchmark is gated at 0 allocs/op in smoke runs.
func TestTableMatchesBenchmarks(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "*_test.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no root test files (%v)", err)
	}
	defined := map[string]bool{}
	re := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range re.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
	}
	rows := map[string]bench{}
	for _, b := range table {
		if !defined[b.name] {
			t.Errorf("table row %s is not a root benchmark", b.name)
		}
		if _, dup := rows[b.name]; dup {
			t.Errorf("table row %s repeats", b.name)
		}
		rows[b.name] = b
	}
	for _, b := range table {
		for _, g := range b.gates {
			if i := strings.Index(g.desc, "x Benchmark"); i >= 0 {
				partner := strings.Fields(g.desc[i+1:])[0]
				if _, ok := rows[partner]; !ok {
					t.Errorf("%s: partner %s is not a table row", b.name, partner)
				}
			}
		}
	}
	ticks := 0
	for name := range defined {
		if !strings.HasSuffix(name, "TickTable") {
			continue
		}
		ticks++
		gated := false
		for _, g := range rows[name].gates {
			gated = gated || g.smoke && g.desc == "allocs/op <= 0"
		}
		if !gated {
			t.Errorf("%s is not gated at 0 allocs/op in smoke runs", name)
		}
	}
	if ticks < 3 {
		t.Errorf("%d *TickTable benchmarks, want at least 3", ticks)
	}
}

// TestHistoryFileReads: the committed history decodes, so a full run does
// not discover a broken line only after its benchmarks ran.
func TestHistoryFileReads(t *testing.T) {
	rows, err := readHistory(filepath.Join("..", "..", historyFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("empty history")
	}
	for i, r := range rows {
		if r.Name == "" || r.Cores < 1 || r.GOMAXPROCS < 1 || r.Metrics["ns/op"] <= 0 {
			t.Errorf("history row %d incomplete: %+v", i+1, r)
		}
	}
}
