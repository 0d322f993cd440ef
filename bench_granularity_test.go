// Granularity-layer benchmarks: granule resolution and the Figure-3
// cover conversion through the periodic tables against the direct
// calendar arithmetic they shortcut, and calendar-zoo granule resolution
// at 2026 timestamps. Each *TickTable benchmark resolves through
// System.Ticker, the lookup the compiled TAG core and the mining scans
// take: a full periodic table for fiscal months, the family's own
// arithmetic for the aperiodic DST-day and trading-session types, which
// compile no table. scripts/benchgate gates every *TickTable benchmark at
// 0 allocs/op and the table cover at >= 5x the direct one.
package tempo

import (
	"testing"

	"repro/internal/calendar"
	"repro/internal/event"
	"repro/internal/granularity"
)

// benchCoverPoints spreads sample instants over two decades so the cover
// loops below touch many distinct granules instead of one hot cache line.
func benchCoverPoints() []int64 {
	pts := make([]int64, 0, 256)
	for y := 1990; y < 2010; y += 1 {
		for m := 1; m <= 12; m += 1 {
			pts = append(pts, event.At(y, m, 17, 9, 30, 0))
		}
	}
	return pts
}

// BenchmarkCoverTableLookup: second→b-day granule resolution through the
// precomputed periodic conversion table, resolved once as the execution
// core does (System.Ticker) — lock-free span arithmetic per call.
func BenchmarkCoverTableLookup(b *testing.B) {
	b.ReportAllocs()
	pts := benchCoverPoints()
	if tb := benchSys.Table("b-day"); tb == nil {
		b.Fatal("no periodic table for b-day")
	}
	tick, ok := benchSys.Ticker("b-day")
	if !ok {
		b.Fatal("no b-day ticker")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(pts[i%len(pts)])
	}
}

// BenchmarkCoverDirect: the same resolution on the direct calendar
// arithmetic the table replaces.
func BenchmarkCoverDirect(b *testing.B) {
	b.ReportAllocs()
	pts := benchCoverPoints()
	g, ok := benchSys.Get("b-day")
	if !ok {
		b.Fatal("no b-day granularity")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TickOf(pts[i%len(pts)])
	}
}

// BenchmarkFig3CoverTable: the paper's Figure-3 style cover
// ⌈z⌉month_b-month through the periodic tables (PeriodicTable.CoverIn):
// pure span arithmetic, no per-day scanning.
func BenchmarkFig3CoverTable(b *testing.B) {
	b.ReportAllocs()
	mt, bt := benchSys.Table("month"), benchSys.Table("b-month")
	if mt == nil || bt == nil {
		b.Fatal("missing periodic tables for month/b-month")
	}
	z0, ok := benchSys.TickOf("b-month", event.At(1996, 4, 1, 9, 0, 0))
	if !ok {
		b.Fatal("anchor b-month undefined")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bt.CoverIn(mt, z0+int64(i%1200)); !ok {
			b.Fatal("cover undefined")
		}
	}
}

// BenchmarkFig3CoverDirect: the same cover on the interval-walking
// granularity.Cover the tables shortcut — the direct b-month Intervals
// visits every day of the month.
func BenchmarkFig3CoverDirect(b *testing.B) {
	b.ReportAllocs()
	mg, ok := benchSys.Get("month")
	if !ok {
		b.Fatal("no month granularity")
	}
	bg, ok := benchSys.Get("b-month")
	if !ok {
		b.Fatal("no b-month granularity")
	}
	z0, ok := bg.TickOf(event.At(1996, 4, 1, 9, 0, 0))
	if !ok {
		b.Fatal("anchor b-month undefined")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := granularity.Cover(mg, bg, z0+int64(i%1200)); !ok {
			b.Fatal("cover undefined")
		}
	}
}

// benchZooPoints returns probe seconds spread over calendar year 2026.
func benchZooPoints() []int64 {
	pts := make([]int64, 4096)
	start := event.At(2026, 1, 1, 0, 0, 0)
	span := int64(365) * calendar.SecondsPerDay
	for i := range pts {
		pts[i] = start + (int64(i)*2654435761)%span
	}
	return pts
}

// benchTicks times tick over the probes. Each probe is resolved once before
// the timer starts, so memoized calendar data (holiday scans) is warm and
// the loop measures steady-state lookups.
func benchTicks(b *testing.B, tick func(int64) (int64, bool)) {
	b.ReportAllocs()
	pts := benchZooPoints()
	for _, t := range pts {
		tick(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick(pts[i%len(pts)])
	}
}

func benchZooTick(b *testing.B, name string) {
	tick, ok := benchSys.Ticker(name)
	if !ok {
		b.Fatalf("no %s ticker", name)
	}
	benchTicks(b, tick)
}

func benchZooDirect(b *testing.B, name string) {
	g, ok := benchSys.Get(name)
	if !ok {
		b.Fatalf("no %s granularity", name)
	}
	benchTicks(b, g.TickOf)
}

// BenchmarkZonedDayTickTable: US-Eastern local days through System.Ticker,
// the path the compiled TAG core takes (direct zone arithmetic: day-et
// compiles no table).
func BenchmarkZonedDayTickTable(b *testing.B) { benchZooTick(b, "day-et") }

// BenchmarkFiscalMonthTickTable: 4-4-5 fiscal months through the full
// periodic table (400-year cycle, n=4800).
func BenchmarkFiscalMonthTickTable(b *testing.B) { benchZooTick(b, "f-month") }

// BenchmarkFiscalMonthTickDirect: direct fiscal-calendar division.
func BenchmarkFiscalMonthTickDirect(b *testing.B) { benchZooDirect(b, "f-month") }

// BenchmarkSessionTickTable: NYSE-style trading sessions through
// System.Ticker (direct session arithmetic: session compiles no table) —
// the gappiest family in the zoo.
func BenchmarkSessionTickTable(b *testing.B) { benchZooTick(b, "session") }
