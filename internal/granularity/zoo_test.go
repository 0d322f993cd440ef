package granularity

import (
	"testing"

	"repro/internal/calendar"
)

// TestZonedDayDSTLengths pins the tentpole behaviour: the US-Eastern local
// day granularity has one 23-hour and one 25-hour granule per year, on the
// DST transition days.
func TestZonedDayDSTLengths(t *testing.T) {
	dayET := NewZonedDay("day-et", calendar.USEastern())
	// Local noon on 2026-03-08 (EDT, UTC-4) is 16:00 UTC.
	zSpring, ok := dayET.TickOf(secondAt(2026, 3, 8, 16, 0, 0))
	if !ok {
		t.Fatal("spring-forward noon not covered")
	}
	if sp, _ := dayET.Span(zSpring); sp.Len() != 23*3600 {
		t.Errorf("spring-forward day length = %d, want 23h", sp.Len())
	}
	// Local noon on 2026-11-01 (EST, UTC-5) is 17:00 UTC.
	zFall, ok := dayET.TickOf(secondAt(2026, 11, 1, 17, 0, 0))
	if !ok {
		t.Fatal("fall-back noon not covered")
	}
	if sp, _ := dayET.Span(zFall); sp.Len() != 25*3600 {
		t.Errorf("fall-back day length = %d, want 25h", sp.Len())
	}
	// A plain day in between.
	zPlain, _ := dayET.TickOf(secondAt(2026, 6, 10, 16, 0, 0))
	if sp, _ := dayET.Span(zPlain); sp.Len() != 24*3600 {
		t.Errorf("plain day length = %d, want 24h", sp.Len())
	}
}

// TestZonedContiguity: zoned days, weeks and months tile the timeline from
// granule 1 on — Span(z).Last+1 == Span(z+1).First — across a range that
// includes both 2026 transitions, and TickOf round-trips every boundary.
func TestZonedContiguity(t *testing.T) {
	for _, g := range []Granularity{
		NewZonedDay("day-et", calendar.USEastern()),
		NewZonedWeek("week-et", calendar.USEastern()),
		NewZonedMonth("month-et", calendar.USEastern()),
		NewZonedDay("day-cet", calendar.CentralEuropean()),
	} {
		// Granule range reaching past 2026: days need ~83k granules, months ~2.7k.
		zStart, ok := g.TickOf(secondAt(2026, 1, 10, 12, 0, 0))
		if !ok {
			t.Fatalf("%s: mid-January 2026 uncovered", g.Name())
		}
		zEnd, _ := g.TickOf(secondAt(2026, 12, 10, 12, 0, 0))
		prev, _ := g.Span(zStart)
		for z := zStart + 1; z <= zEnd; z++ {
			cur, ok := g.Span(z)
			if !ok {
				t.Fatalf("%s: Span(%d) undefined", g.Name(), z)
			}
			if cur.First != prev.Last+1 {
				t.Fatalf("%s: gap/overlap between granules %d and %d: %v then %v", g.Name(), z-1, z, prev, cur)
			}
			for _, probe := range []int64{cur.First, cur.Last} {
				if got, ok := g.TickOf(probe); !ok || got != z {
					t.Fatalf("%s: TickOf(%d) = (%d, %v), want (%d, true)", g.Name(), probe, got, ok, z)
				}
			}
			prev = cur
		}
	}
}

// TestZonedLeadingGap: west-of-UTC zones open with a gap of -offset seconds
// (their local day 0 is still in progress), east-of-UTC zones skip the
// incomplete local day 1.
func TestZonedLeadingGap(t *testing.T) {
	et := NewZonedDay("day-et", calendar.USEastern())
	if _, ok := et.TickOf(18000); ok {
		t.Error("day-et: second 18000 (last of the leading gap) should be uncovered")
	}
	if z, ok := et.TickOf(18001); !ok || z != 1 {
		t.Errorf("day-et: TickOf(18001) = first granule, got (%d, %v)", z, ok)
	}
	cet := NewZonedDay("day-cet", calendar.CentralEuropean())
	sp, ok := cet.Span(1)
	if !ok || sp.First != 82801 {
		t.Errorf("day-cet: granule 1 starts at %d (ok=%v), want 82801 (local day 2)", sp.First, ok)
	}
}

// TestFiscal445Structure pins the 52/53-week fiscal calendar: every year is
// 364 or 371 days, months follow the 4-4-5 split (with the 53rd week on the
// final month), and fiscal weeks tile years exactly.
func TestFiscal445Structure(t *testing.T) {
	f := defaultFiscal()
	fy := NewFiscalYear("f-year", f)
	fm := NewFiscalMonth("f-month", f)
	fw := NewFiscalWeek("f-week", f)
	saw53 := false
	for z := int64(1); z <= 40; z++ {
		sp, ok := fy.Span(z)
		if !ok {
			t.Fatalf("f-year Span(%d) undefined", z)
		}
		days := sp.Len() / calendar.SecondsPerDay
		switch days {
		case 364:
		case 371:
			saw53 = true
		default:
			t.Fatalf("fiscal year %d has %d days", z, days)
		}
		// Last day must be the configured end weekday (Saturday).
		if w := calendar.WeekdayOf(rataOfSecond(sp.Last)); w != calendar.Saturday {
			t.Fatalf("fiscal year %d ends on %v, want Saturday", z, w)
		}
		// Months 12z-11..12z tile the year with the 4-4-5 split.
		weeks := days / 7
		wantWeeks := []int64{4, 4, 5, 4, 4, 5, 4, 4, 5, 4, 4, 5}
		if weeks == 53 {
			wantWeeks[11]++
		}
		cursor := sp.First
		for m := 0; m < 12; m++ {
			msp, ok := fm.Span((z-1)*12 + int64(m) + 1)
			if !ok || msp.First != cursor {
				t.Fatalf("fiscal month %d of year %d: span %v ok=%v, cursor %d", m+1, z, msp, ok, cursor)
			}
			if msp.Len() != wantWeeks[m]*7*calendar.SecondsPerDay {
				t.Fatalf("fiscal month %d of year %d: %d seconds, want %d weeks", m+1, z, msp.Len(), wantWeeks[m])
			}
			cursor = msp.Last + 1
		}
		if cursor != sp.Last+1 {
			t.Fatalf("fiscal year %d: months end at %d, year at %d", z, cursor-1, sp.Last)
		}
	}
	if !saw53 {
		t.Error("no 53-week year among the first 40 fiscal years")
	}
	// Fiscal weeks are 7-day blocks aligned to fiscal year 1's start.
	y1, _ := fy.Span(1)
	for z := int64(1); z <= 200; z++ {
		sp, ok := fw.Span(z)
		if !ok || sp.First != y1.First+(z-1)*7*calendar.SecondsPerDay || sp.Len() != 7*calendar.SecondsPerDay {
			t.Fatalf("f-week Span(%d) = %v ok=%v", z, sp, ok)
		}
	}
}

// TestFiscalConfigValidation: degenerate configs must error, never panic.
func TestFiscalConfigValidation(t *testing.T) {
	bad := []FiscalConfig{
		{EndMonth: 0, EndWeekday: calendar.Saturday, Pattern: [3]int{4, 4, 5}},
		{EndMonth: 13, EndWeekday: calendar.Saturday, Pattern: [3]int{4, 4, 5}},
		{EndMonth: 1, EndWeekday: calendar.Weekday(9), Pattern: [3]int{4, 4, 5}},
		{EndMonth: 1, EndWeekday: calendar.Saturday, Pattern: [3]int{4, 4, 4}},
		{EndMonth: 1, EndWeekday: calendar.Saturday, Pattern: [3]int{0, 6, 7}},
		{EndMonth: 1, EndWeekday: calendar.Saturday, Pattern: [3]int{-1, 7, 7}},
	}
	for i, cfg := range bad {
		if _, err := NewFiscal(cfg); err == nil {
			t.Errorf("case %d: degenerate fiscal config %+v accepted", i, cfg)
		}
	}
}

// TestTradingSession pins the session granularity: 09:30–16:00 on business
// days, 13:00 early closes, holiday and weekend gaps.
func TestTradingSession(t *testing.T) {
	g := mustGran(NewTradingSession("session", defaultTradingConfig()))
	// A plain Wednesday: 2026-06-10.
	z, ok := g.TickOf(secondAt(2026, 6, 10, 10, 0, 0))
	if !ok {
		t.Fatal("mid-session second uncovered")
	}
	sp, _ := g.Span(z)
	if sp.Len() != 23400 { // 6.5 hours
		t.Errorf("regular session length = %d, want 23400", sp.Len())
	}
	if _, ok := g.TickOf(secondAt(2026, 6, 10, 9, 29, 59)); ok {
		t.Error("second before the open covered")
	}
	if _, ok := g.TickOf(secondAt(2026, 6, 10, 16, 0, 30)); ok {
		t.Error("second after the close covered")
	}
	// 2026-07-03 is a Friday: July 4 falls on Saturday, so the observed
	// holiday lands on the 3rd and the exchange is closed outright.
	if _, ok := g.TickOf(secondAt(2026, 7, 3, 10, 0, 0)); ok {
		t.Error("observed-holiday session covered")
	}
	// 2026-12-24 is a Thursday half day: early close at 13:00.
	zHalf, ok := g.TickOf(secondAt(2026, 12, 24, 10, 0, 0))
	if !ok {
		t.Fatal("half-day session uncovered")
	}
	if sp, _ := g.Span(zHalf); sp.Len() != 12600 { // 3.5 hours
		t.Errorf("half-day session length = %d, want 12600", sp.Len())
	}
	// Weekend.
	if _, ok := g.TickOf(secondAt(2026, 6, 13, 10, 0, 0)); ok {
		t.Error("Saturday session covered")
	}
	// Consecutive sessions are strictly ordered with gaps.
	for z := int64(1); z <= 300; z++ {
		a, _ := g.Span(z)
		b, ok := g.Span(z + 1)
		if !ok || b.First <= a.Last {
			t.Fatalf("sessions %d and %d not ordered with a gap: %v, %v", z, z+1, a, b)
		}
	}
}

// TestTradingWeek: granules are non-convex unions of the week's sessions,
// shrinking on holiday weeks.
func TestTradingWeek(t *testing.T) {
	g := mustGran(NewTradingWeek("t-week", defaultTradingConfig()))
	// Week of 2026-06-08 (Mon-Sun, no holidays): 5 sessions.
	z, ok := g.TickOf(secondAt(2026, 6, 10, 10, 0, 0))
	if !ok {
		t.Fatal("plain trading week uncovered")
	}
	ivs, _ := g.Intervals(z)
	if len(ivs) != 5 {
		t.Fatalf("plain trading week has %d intervals, want 5", len(ivs))
	}
	for _, iv := range ivs {
		if iv.Len() != 23400 {
			t.Errorf("session interval %v has length %d, want 23400", iv, iv.Len())
		}
	}
	// Week of 2026-11-26 (Thanksgiving Thursday): 4 sessions.
	zT, _ := g.TickOf(secondAt(2026, 11, 23, 10, 0, 0))
	if ivsT, _ := g.Intervals(zT); len(ivsT) != 4 {
		t.Errorf("Thanksgiving trading week has %d intervals, want 4", len(ivsT))
	}
	// The span contains far more gap than session: non-convex and gappy.
	sp, _ := g.Span(z)
	var covered int64
	for _, iv := range ivs {
		covered += iv.Len()
	}
	if covered*2 > sp.Len() {
		t.Errorf("trading week coverage %d of hull %d: expected mostly gap", covered, sp.Len())
	}
}

// TestEveryRegisteredCompilesTable is the PeriodHint-audit regression: every
// granularity in the default registry must compile a full periodic table of
// its pinned shape, except the five aperiodic families, whose period only
// closes at the 400-year cycle far past the cap and which get no table. A
// combinator silently dropping its hint used to leave whole families on the
// slow path — Shift dropped the hint FiscalYear depended on, and NthOf never
// declared one — and now leaves a nil table this test reports.
func TestEveryRegisteredCompilesTable(t *testing.T) {
	s := Default()
	aperiodic := map[string]bool{"day-et": true, "week-et": true, "day-cet": true, "session": true, "t-week": true}
	// (prefix, granules per period) of every other registered family.
	pinned := map[string][2]int64{
		"second": {0, 1}, "minute": {0, 1}, "hour": {0, 1}, "day": {0, 1},
		"week": {1, 1}, "b-week": {1, 1}, "weekend": {1, 1}, "f-week": {0, 1},
		"b-day":     {0, 5},
		"month":     {0, 4800},
		"b-month":   {0, 4800},
		"month-et":  {0, 4800}, // DST offsets at month starts repeat per 400y cycle
		"f-month":   {0, 4800},
		"payday":    {0, 4800}, // last b-day of month: one pick per month
		"f-quarter": {0, 1600},
		"year":      {0, 400},
		"f-year":    {0, 400},
	}
	names := s.Names()
	if len(pinned)+len(aperiodic) != len(names) {
		t.Errorf("shapes pinned for %d families, registry has %d", len(pinned)+len(aperiodic), len(names))
	}
	for _, name := range names {
		tb := s.Table(name)
		want, ok := pinned[name]
		switch {
		case aperiodic[name]:
			if tb != nil {
				t.Errorf("%s: aperiodic family compiled table %+v, want none", name, tableShape(tb))
			}
		case !ok:
			t.Errorf("%s: registered family has no pinned table shape", name)
		case tb == nil || tb.Prefix() != want[0] || tb.PeriodGranules() != want[1]:
			t.Errorf("%s: want full periodic table (prefix=%d, n=%d), got %+v", name, want[0], want[1], tableShape(tb))
		}
	}
	// The fixed combinators lift hints to full tables.
	if tb := NewPeriodicTable(FiscalYear("fy-oct", 10)); tb == nil || tb.PeriodGranules() != 400 {
		t.Errorf("FiscalYear(10): Shift dropped the PeriodHint again (table %+v)", tableShape(tb))
	}
}

func tableShape(tb *PeriodicTable) map[string]any {
	if tb == nil {
		return nil
	}
	return map[string]any{"prefix": tb.Prefix(), "n": tb.PeriodGranules()}
}

// TestZooTableEquivalence is the periodic-table equivalence satellite: for
// each zoo family that compiles a table, table-driven TickOf/Span/Intervals
// are bit-identical to direct calendar arithmetic over every granule of two
// full periods and across the period seam.
func TestZooTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-period sweep")
	}
	s := Default()
	for _, name := range []string{"month-et", "f-week", "f-month", "f-year", "payday", "f-quarter"} {
		g := s.MustGet(name)
		tb := s.Table(name)
		if tb == nil {
			t.Fatalf("%s: no table", name)
		}
		zMax := tb.Prefix() + 2*tb.PeriodGranules() + 3 // cross the period seam
		var scratch []Interval
		for z := int64(1); z <= zMax; z++ {
			want, wok := g.Intervals(z)
			var gok bool
			scratch, gok = tb.AppendIntervals(scratch[:0], z)
			if wok != gok || len(want) != len(scratch) {
				t.Fatalf("%s: Intervals(%d): table %v/%v, direct %v/%v", name, z, scratch, gok, want, wok)
			}
			for i := range want {
				if want[i] != scratch[i] {
					t.Fatalf("%s: Intervals(%d)[%d]: table %v, direct %v", name, z, i, scratch[i], want[i])
				}
			}
			if len(want) == 0 {
				continue
			}
			// TickOf at every granule boundary, and just outside them.
			for _, probe := range []int64{want[0].First, want[0].First - 1, want[len(want)-1].Last, want[len(want)-1].Last + 1} {
				wz, wk := g.TickOf(probe)
				gz, gk := tb.TickOf(probe)
				if wz != gz || wk != gk {
					t.Fatalf("%s: TickOf(%d): table (%d,%v), direct (%d,%v)", name, probe, gz, gk, wz, wk)
				}
			}
		}
	}
}

// TestZooCoverEquivalence drives System.CoverOf (table path) against the
// direct Cover across zoo family pairs, over granule ranges that include
// DST transitions, a 53-week year end and trading holiday gaps.
func TestZooCoverEquivalence(t *testing.T) {
	s := Default()
	pairs := [][2]string{
		{"week-et", "day-et"}, {"month-et", "day-et"}, {"month-et", "week-et"},
		{"month", "day-et"}, {"day-et", "hour"},
		{"f-year", "f-month"}, {"f-month", "f-week"}, {"f-quarter", "f-month"}, {"f-year", "f-week"},
		{"t-week", "session"}, {"week", "session"}, {"b-day", "session"}, {"day", "session"},
		{"month", "payday"}, {"b-month", "payday"},
	}
	for _, pr := range pairs {
		nu, mu := s.MustGet(pr[0]), s.MustGet(pr[1])
		// Early granules plus a window two years in (past transitions and
		// holiday gaps).
		var zs []int64
		for z := int64(1); z <= 80; z++ {
			zs = append(zs, z)
		}
		if zLate, ok := mu.TickOf(secondAt(1801, 11, 10, 12, 0, 0)); ok {
			for d := int64(-40); d <= 40; d++ {
				if zLate+d >= 1 {
					zs = append(zs, zLate+d)
				}
			}
		}
		for _, z := range zs {
			want, wok := Cover(nu, mu, z)
			got, gok := s.CoverOf(pr[0], pr[1], z)
			if want != got || wok != gok {
				t.Fatalf("CoverOf(%s, %s, %d) = (%d,%v), direct (%d,%v)", pr[0], pr[1], z, got, gok, want, wok)
			}
		}
	}
}

// TestSharedFamilyObjects: Default() hands out the same underlying objects
// across calls, so memoized state (b-day scans, payday picks) is shared.
func TestSharedFamilyObjects(t *testing.T) {
	a, b := Default(), Default()
	for _, name := range a.Names() {
		if a.MustGet(name) != b.MustGet(name) {
			t.Errorf("%s: Default() built a fresh object per call", name)
		}
	}
	if _, ok := NewFamily("no-such-family"); ok {
		t.Error("NewFamily accepted an unknown name")
	}
	if len(FamilyNames()) != len(a.Names()) {
		t.Errorf("FamilyNames (%d) and Default registry (%d) disagree", len(FamilyNames()), len(a.Names()))
	}
}
