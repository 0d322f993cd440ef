package granularity

import (
	"strings"
	"testing"

	"repro/internal/calendar"
)

// exprResolve is the identifier table used by the expression tests: the
// shared default families.
func exprResolve(name string) (Granularity, bool) {
	return Default().Get(name)
}

// TestParseExprEquivalences: composed expressions behave exactly like the
// granularities built directly from the Go constructors.
func TestParseExprEquivalences(t *testing.T) {
	cases := []struct {
		src  string
		want Granularity
	}{
		{"day", Day()},
		{"group(hour, 24)", Day()},
		{"zoned(day, utc)", Day()},
		{"zoned(day, us-eastern)", NewZonedDay("", calendar.USEastern())},
		{"zoned(month, cet)", NewZonedMonth("", calendar.CentralEuropean())},
		{"fiscal(month, 4-4-5, 1, sat)", NewFiscalMonth("", defaultFiscal())},
		{"fiscal(week, 4-4-5, 1, sat)", NewFiscalWeek("", defaultFiscal())},
		{"trading(09:30, 16:00, us, 13:00)", mustGran(NewTradingSession("", defaultTradingConfig()))},
		{"tweek(09:30, 16:00, us)", mustGran(NewTradingWeek("", TradingConfig{Open: 34200, Close: 57600, Holidays: calendar.USFederal()}))},
		{"nth(month, b-day, -1)", NthOf("", Month(), BDay(), -1)},
		{"intersect(day, b-day)", BDay()},
		{"shift(day, 5)", Shift("", Day(), 5)},
	}
	for _, tc := range cases {
		g, err := ParseExpr("x", tc.src, exprResolve)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", tc.src, err)
			continue
		}
		if g.Name() != "x" {
			t.Errorf("ParseExpr(%q): name %q, want %q", tc.src, g.Name(), "x")
		}
		for z := int64(1); z <= 40; z++ {
			want, wok := tc.want.Intervals(z)
			got, gok := g.Intervals(z)
			if wok != gok || len(want) != len(got) {
				t.Fatalf("%q: Intervals(%d) = %v/%v, want %v/%v", tc.src, z, got, gok, want, wok)
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%q: Intervals(%d)[%d] = %v, want %v", tc.src, z, i, got[i], want[i])
				}
			}
		}
		for _, probe := range []int64{1, 86400, 86401, 40 * 86400} {
			wz, wok := tc.want.TickOf(probe)
			gz, gok := g.TickOf(probe)
			if wz != gz || wok != gok {
				t.Fatalf("%q: TickOf(%d) = (%d,%v), want (%d,%v)", tc.src, probe, gz, gok, wz, wok)
			}
		}
	}
}

// TestParseExprKeepsHints: the Rename wrapper and the expression combinators
// must not lose PeriodHint — an expression over hinted components compiles a
// full periodic table just like its hand-built twin.
func TestParseExprKeepsHints(t *testing.T) {
	g, err := ParseExpr("expr-payday", "nth(month, b-day, -1)", exprResolve)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewPeriodicTable(g)
	if tb == nil || tb.PeriodGranules() != 4800 {
		t.Errorf("expression payday table = %+v, want full periodic n=4800", tableShape(tb))
	}
	g, err = ParseExpr("expr-fm", "fiscal(month, 4-4-5, 1, sat)", exprResolve)
	if err != nil {
		t.Fatal(err)
	}
	if tb := NewPeriodicTable(g); tb == nil || tb.PeriodGranules() != 4800 {
		t.Errorf("expression fiscal-month table = %+v, want full periodic n=4800", tableShape(tb))
	}
}

// TestParseExprErrors: every malformed input errors cleanly — never panics,
// never silently succeeds.
func TestParseExprErrors(t *testing.T) {
	bad := []string{
		"",
		"(",
		")",
		",",
		"nope",
		"day extra",
		"day)",
		"group(day)",
		"group(day, 0)",
		"group(day, 9999999)",
		"group(day, x)",
		"shift(day, -1)",
		"nth(day, hour, 0)",
		"nth(month, b-day)",
		"nth(year, second, 5)", // density: 31.5M inner granules per outer
		"intersect(year, second)",
		"intersect(day)",
		"zoned(day, mars)",
		"zoned(century, utc)",
		"zoned(day, utc+99)",
		"fiscal(year, 4-4-4, 1, sat)",
		"fiscal(year, 4-4, 1, sat)",
		"fiscal(year, 4-x-5, 1, sat)",
		"fiscal(year, 4-4-5, 13, sat)",
		"fiscal(year, 4-4-5, 1, caturday)",
		"fiscal(decade, 4-4-5, 1, sat)",
		"trading(16:00, 09:30)",
		"trading(09:30, 16:00, lunar)",
		"trading(09:61, 16:00)",
		"trading(09:30)",
		"trading(09:30, 16:00, us, 09:00)", // early close before the open
		"tweek(25:00, 26:00)",
		"unknown(day, 2)",
		"group(group(group(group(group(group(group(group(group(day,2),2),2),2),2),2),2),2),2)",
		strings.Repeat("x", exprMaxLen+1),
	}
	for _, src := range bad {
		if g, err := ParseExpr("x", src, exprResolve); err == nil {
			t.Errorf("ParseExpr(%q) accepted as %v", src, g.Name())
		}
	}
	// A nil resolver rejects every identifier but constructors still work.
	if _, err := ParseExpr("x", "day", nil); err == nil {
		t.Error("nil resolver accepted an identifier")
	}
	if _, err := ParseExpr("x", "zoned(day, utc+2)", nil); err != nil {
		t.Errorf("nil resolver broke constructors: %v", err)
	}
}

// FuzzCalendarExpr: the expression constructor must never panic and every
// successfully parsed granularity must satisfy the interface contract on a
// few probes (monotone TickOf round-trips, ordered intervals).
func FuzzCalendarExpr(f *testing.F) {
	seeds := []string{
		"day",
		"group(hour, 24)",
		"shift(week, 3)",
		"nth(month, b-day, -1)",
		"nth(b-month, day, 2)",
		"intersect(day, b-day)",
		"intersect(week-et, b-week)",
		"zoned(day, us-eastern)",
		"zoned(week, cet)",
		"zoned(month, utc-7)",
		"fiscal(year, 4-4-5, 1, sat)",
		"fiscal(quarter, 4-5-4, 9, fri)",
		"trading(09:30, 16:00, us, 13:00)",
		"tweek(08:00, 17:30, none)",
		"group(zoned(day, us-eastern), 7)",
		"nth(fiscal(month, 4-4-5, 1, sat), b-day, 1)",
		"",
		"group(day, 0)",
		"zoned(day, mars)",
		"trading(16:00, 09:30)",
		"fiscal(year, 4-4-4, 1, sat)",
		"nth(year, second, 5)",
		"((((",
		"day)))))",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := ParseExpr("fuzz", src, exprResolve)
		if err != nil {
			return
		}
		// Poke the granularity: contract violations and panics both fail.
		for z := int64(1); z <= 3; z++ {
			ivs, ok := g.Intervals(z)
			if !ok {
				continue
			}
			prev := int64(0)
			for _, iv := range ivs {
				if iv.First <= prev || iv.Last < iv.First {
					t.Fatalf("%q: Intervals(%d) out of order: %v", src, z, ivs)
				}
				prev = iv.Last
			}
			if len(ivs) > 0 {
				if zz, ok := g.TickOf(ivs[0].First); !ok || zz != z {
					t.Fatalf("%q: TickOf(Span(%d).First) = (%d, %v)", src, z, zz, ok)
				}
			}
		}
		g.TickOf(1)
		g.TickOf(12345678)
	})
}
