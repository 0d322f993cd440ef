package granularity

import (
	"fmt"

	"repro/internal/calendar"
)

// This file implements exchange trading sessions: the first granularities in
// the registry whose granules are strict sub-day intervals with gaps on both
// sides (overnight, weekends, holidays) and data-dependent lengths (half
// days close early). A trading *week* unions the sessions of a calendar
// week into one gappy, non-convex granule — structurally richer than b-week,
// whose business days at least tile full days.

// TradingConfig describes one exchange's session schedule.
type TradingConfig struct {
	// Open and Close delimit the regular session in seconds after midnight:
	// the session occupies [Open, Close) on every business day.
	Open, Close int64
	// Holidays are full closures (nil = weekends only).
	Holidays calendar.HolidaySet
	// HalfDays mark early closures, which end at EarlyClose instead of
	// Close. EarlyClose is ignored when HalfDays is nil.
	HalfDays   calendar.HolidaySet
	EarlyClose int64
}

// Validate reports whether the schedule is well-formed: sessions must have
// positive length and stay within the day, and an early close must truncate
// (not extend or empty) the session.
func (c TradingConfig) Validate() error {
	if c.Open < 0 || c.Open >= c.Close || c.Close > calendar.SecondsPerDay {
		return fmt.Errorf("granularity: trading session [%d, %d) is not a nonempty within-day range", c.Open, c.Close)
	}
	if c.HalfDays != nil && (c.EarlyClose <= c.Open || c.EarlyClose > c.Close) {
		return fmt.Errorf("granularity: early close %d outside (%d, %d]", c.EarlyClose, c.Open, c.Close)
	}
	return nil
}

// closeOf returns the closing offset for rata day r.
func (c TradingConfig) closeOf(r int64) int64 {
	if c.HalfDays != nil && c.HalfDays.IsHoliday(r) {
		return c.EarlyClose
	}
	return c.Close
}

// sessionOn returns the session interval on rata day r, ok=false when the
// exchange is closed that day.
func (c TradingConfig) sessionOn(r int64) (Interval, bool) {
	if !calendar.IsBusinessDay(r, c.Holidays) {
		return Interval{}, false
	}
	base := (r - 1) * calendar.SecondsPerDay
	return Interval{First: base + c.Open + 1, Last: base + c.closeOf(r)}, true
}

// tradingSessionG is the session granularity: granule z is the z-th session
// interval on the timeline. Session days are exactly the business days of
// the holiday set, so day indexing is delegated to an internal BusinessDay.
type tradingSessionG struct {
	name string
	cfg  TradingConfig
	days *BusinessDay
}

// NewTradingSession builds the session granularity, validating the config.
func NewTradingSession(name string, cfg TradingConfig) (Granularity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &tradingSessionG{name: name, cfg: cfg, days: NewBusinessDay(name+"-days", cfg.Holidays)}, nil
}

func (g *tradingSessionG) Name() string { return g.name }

func (g *tradingSessionG) TickOf(t int64) (int64, bool) {
	if t < 1 {
		return 0, false
	}
	r := rataOfSecond(t)
	iv, ok := g.cfg.sessionOn(r)
	if !ok || t < iv.First || t > iv.Last {
		return 0, false
	}
	return g.days.TickOf(t)
}

func (g *tradingSessionG) Span(z int64) (Interval, bool) {
	r, ok := g.days.rataOf(z)
	if !ok {
		return Interval{}, false
	}
	return g.cfg.sessionOn(r)
}

func (g *tradingSessionG) Intervals(z int64) ([]Interval, bool) { return convexIntervals(g, z) }

// PeriodHint implements PeriodHint: without holidays or half-days the
// schedule repeats weekly (5 sessions per 7 days); with either, the minimal
// period is the 400-year cycle (~104k sessions), far past the table cap, so
// no hint and no table: lookups use the direct session arithmetic.
func (g *tradingSessionG) PeriodHint() (int64, int64) {
	if g.cfg.Holidays != nil || g.cfg.HalfDays != nil {
		return 0, 0
	}
	return 0, 5
}

// InterestingSeconds implements the oracle's BoundaryHint: opening seconds
// after the first few holiday closures and the early-close second of the
// first few half days.
func (g *tradingSessionG) InterestingSeconds() []int64 {
	var out []int64
	holidayGaps, halfDays := 0, 0
	for r := int64(1); r <= 500 && (holidayGaps < 2 || halfDays < 2); r++ {
		w := calendar.WeekdayOf(r)
		if w == calendar.Saturday || w == calendar.Sunday {
			continue
		}
		if g.cfg.Holidays != nil && g.cfg.Holidays.IsHoliday(r) && holidayGaps < 2 {
			// First session second after the closure.
			for n := r + 1; n <= r+7; n++ {
				if iv, ok := g.cfg.sessionOn(n); ok {
					out = append(out, iv.First)
					break
				}
			}
			holidayGaps++
		} else if g.cfg.HalfDays != nil && g.cfg.HalfDays.IsHoliday(r) && halfDays < 2 {
			if iv, ok := g.cfg.sessionOn(r); ok {
				out = append(out, iv.Last+1)
			}
			halfDays++
		}
	}
	return out
}

// tradingWeekG unions the sessions of calendar week z into one granule.
type tradingWeekG struct {
	name string
	cfg  TradingConfig
}

// NewTradingWeek builds the trading-week granularity over the same config.
// Weeks with no session at all would break the paper's monotonicity
// condition; under weekday-holiday rule sets every week keeps at least one
// session, which Validate cannot check statically — callers pick rule sets
// accordingly (the registry's do).
func NewTradingWeek(name string, cfg TradingConfig) (Granularity, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &tradingWeekG{name: name, cfg: cfg}, nil
}

func (g *tradingWeekG) Name() string { return g.name }

func (g *tradingWeekG) TickOf(t int64) (int64, bool) {
	if t < 1 {
		return 0, false
	}
	iv, ok := g.cfg.sessionOn(rataOfSecond(t))
	if !ok || t < iv.First || t > iv.Last {
		return 0, false
	}
	return Week().TickOf(t)
}

func (g *tradingWeekG) Span(z int64) (Interval, bool) {
	ivs, ok := g.Intervals(z)
	if !ok || len(ivs) == 0 {
		return Interval{}, false
	}
	return Interval{First: ivs[0].First, Last: ivs[len(ivs)-1].Last}, true
}

func (g *tradingWeekG) Intervals(z int64) ([]Interval, bool) {
	span, ok := Week().Span(z)
	if !ok {
		return nil, false
	}
	var ivs []Interval
	for r := rataOfSecond(span.First); r <= rataOfSecond(span.Last); r++ {
		if iv, ok := g.cfg.sessionOn(r); ok {
			ivs = append(ivs, iv)
		}
	}
	if len(ivs) == 0 {
		return nil, false
	}
	return mergeAdjacent(ivs), true
}

// PeriodHint implements PeriodHint: like week, granule 1 sits in the
// partial leading week; holiday-aware variants only close at the 400-year
// cycle (20871 weeks) and get no table.
func (g *tradingWeekG) PeriodHint() (int64, int64) {
	if g.cfg.Holidays != nil || g.cfg.HalfDays != nil {
		return 0, 0
	}
	return 1, 1
}
