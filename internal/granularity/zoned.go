package granularity

import (
	"sync"

	"repro/internal/calendar"
)

// This file implements zone-local granularities: days, weeks and months as
// civil time observes them inside a time zone with DST transitions. The
// spring-forward day is 23 hours of timeline seconds, the fall-back day 25;
// zone-local weeks and months inherit the shifted boundaries. Granules stay
// convex (an offset change stretches or shrinks a local day, it never tears
// it), but for DST zones the granule-length pattern only repeats with the
// 400-year Gregorian cycle — far past the periodic-table cap — so DST days
// and weeks compile no table and resolve through the arithmetic below.

// zonedUnit selects which local civil unit a zoned granularity tracks.
type zonedUnit int

const (
	zonedDay zonedUnit = iota
	zonedWeek
	zonedMonth
)

// zonedG is a zone-local day/week/month granularity. Granule 1 is the first
// complete local unit on the timeline; zones east of UTC therefore open with
// a short leading gap (their local day 1 began before the timeline did), and
// zones west of UTC open with a gap of -offset seconds.
type zonedG struct {
	name string
	zone *calendar.Zone
	unit zonedUnit

	initOnce sync.Once
	// firstRata is the first complete local day; base aligns granule 1:
	// zonedDay: base = firstRata (granule z is local day base+z-1)
	// zonedWeek: base = rata of the first Monday >= firstRata
	// zonedMonth: base = month index of the first complete local month
	firstRata, base int64
}

// NewZonedDay returns the local-day granularity of zone.
func NewZonedDay(name string, zone *calendar.Zone) Granularity {
	return &zonedG{name: name, zone: zone, unit: zonedDay}
}

// NewZonedWeek returns the local-week (Monday..Sunday) granularity of zone.
func NewZonedWeek(name string, zone *calendar.Zone) Granularity {
	return &zonedG{name: name, zone: zone, unit: zonedWeek}
}

// NewZonedMonth returns the local-month granularity of zone.
func NewZonedMonth(name string, zone *calendar.Zone) Granularity {
	return &zonedG{name: name, zone: zone, unit: zonedMonth}
}

func (g *zonedG) Name() string { return g.name }

// init resolves the first complete local unit once. LocalRataOf(1) is the
// local day in progress at the timeline start; it is complete iff its local
// midnight falls on the timeline.
func (g *zonedG) init() {
	g.initOnce.Do(func() {
		r := g.zone.LocalRataOf(1)
		if _, ok := g.zone.StartOfLocalDay(r); !ok {
			r++
		}
		g.firstRata = r
		switch g.unit {
		case zonedDay:
			g.base = r
		case zonedWeek:
			w := calendar.WeekdayOf(r)
			g.base = r + (7-int64(w))%7 // next Monday (or r itself)
		case zonedMonth:
			d := calendar.DateOf(r)
			if d.Day != 1 {
				first, _ := calendar.MonthSpan(calendar.MonthIndexOf(r) + 1)
				r = first
			}
			g.base = calendar.MonthIndexOf(r)
		}
	})
}

// localDays returns the inclusive local-day range of granule z, ok=false
// for z < 1.
func (g *zonedG) localDays(z int64) (first, last int64, ok bool) {
	if z < 1 {
		return 0, 0, false
	}
	g.init()
	switch g.unit {
	case zonedDay:
		r := g.base + z - 1
		return r, r, true
	case zonedWeek:
		first = g.base + (z-1)*7
		return first, first + 6, true
	default: // zonedMonth
		mi := g.base + z - 1
		first, last = calendar.MonthSpan(mi)
		return first, last, true
	}
}

func (g *zonedG) TickOf(t int64) (int64, bool) {
	if t < 1 {
		return 0, false
	}
	g.init()
	r := g.zone.LocalRataOf(t)
	switch g.unit {
	case zonedDay:
		if r < g.base {
			return 0, false
		}
		return r - g.base + 1, true
	case zonedWeek:
		if r < g.base {
			return 0, false
		}
		return (r-g.base)/7 + 1, true
	default: // zonedMonth
		mi := calendar.MonthIndexOf(r)
		if mi < g.base || r < g.firstRata {
			return 0, false
		}
		return mi - g.base + 1, true
	}
}

func (g *zonedG) Span(z int64) (Interval, bool) {
	first, last, ok := g.localDays(z)
	if !ok {
		return Interval{}, false
	}
	s, ok := g.zone.StartOfLocalDay(first)
	if !ok {
		return Interval{}, false
	}
	e, ok := g.zone.StartOfLocalDay(last + 1)
	if !ok {
		return Interval{}, false
	}
	return Interval{First: s, Last: e - 1}, true
}

func (g *zonedG) Intervals(z int64) ([]Interval, bool) { return convexIntervals(g, z) }

// PeriodHint implements PeriodHint. Fixed-offset zones are just phase-
// shifted copies of day/week/month and hint accordingly; DST zones have a
// 400-year minimal period whose granule count exceeds the table cap for
// every unit (146097 local days, 20871 weeks, 4800 months — months would
// fit, but the *offsets* of month starts only repeat with the full cycle,
// which the builder would need 4800 granules to verify; that fits too, so
// months do hint). Days and weeks of DST zones return no hint and get no
// table.
func (g *zonedG) PeriodHint() (int64, int64) {
	if g.zone.HasDST() {
		if g.unit == zonedMonth {
			// 4800 months per 400-year cycle; DST rules are month/weekday
			// based, so month-boundary offsets repeat with the cycle.
			return 0, 4800
		}
		return 0, 0
	}
	switch g.unit {
	case zonedDay:
		return 0, 1
	case zonedWeek:
		return 0, 1
	default:
		return 0, 4800
	}
}

// InterestingSeconds implements the oracle's BoundaryHint: the timeline
// seconds where the zone's behaviour is special — the first second after
// each DST transition in a few early years (spring-forward opens a 23h day,
// fall-back a 25h one).
func (g *zonedG) InterestingSeconds() []int64 {
	var out []int64
	for _, inst := range g.zone.TransitionInstants(calendar.AnchorYear, calendar.AnchorYear+3) {
		if s := inst + 1; s >= 1 {
			out = append(out, s)
		}
	}
	return out
}
