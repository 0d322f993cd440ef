// Calendar-zoo benchmarks: granule resolution at 2026 timestamps.
// Each *TickTable benchmark resolves through System.Ticker, the lookup the
// compiled TAG core and the mining scans take: a full periodic table for
// fiscal months, the family's own arithmetic for the aperiodic DST-day and
// trading-session types, which compile no table. That path must stay
// alloc-free — the gate in scripts/bench_compare.sh pr10 is allocs/op == 0
// on every *TickTable benchmark here. BenchmarkFiscalMonthTickDirect calls
// f-month's own TickOf; its ratio to the table lookup is recorded in
// BENCH_PR10.json as an informational speedup.
package tempo

import (
	"testing"

	"repro/internal/calendar"
	"repro/internal/event"
)

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
