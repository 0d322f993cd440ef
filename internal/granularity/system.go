package granularity

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/calendar"
)

// System is a granularity system: a named collection of temporal types with
// shared metric and conversion-feasibility caches. The constraint machinery
// resolves granularity names against a System.
//
// A System is safe for concurrent use and built for contention: the mining
// worker pool resolves clock granularities for every event of every
// candidate scan, so Get sits on the hottest path in the repository. Reads
// go through a copy-on-write registry snapshot (one atomic pointer load, no
// lock), and the derived caches (Metrics, ConversionFeasible, CoverAlways)
// use per-entry single-flight fills under sync.Map: two workers asking for
// the same expensive entry block only each other — never workers filling
// different entries, and never plain lookups of already-filled ones.
type System struct {
	mu       sync.Mutex // serializes mutations (Add); readers never take it
	reg      atomic.Pointer[registry]
	metrics  sync.Map // string -> *metricsEntry
	tables   sync.Map // string -> *tableEntry
	feasible sync.Map // [2]string -> *coverEntry
	coverAll sync.Map // [2]string -> *coverEntry
	horizon  int
	coverage int64
}

// registry is the immutable snapshot Get/Names read; Add installs a fresh
// copy instead of mutating in place.
type registry struct {
	grans map[string]Granularity
	order []string
}

// metricsEntry is a single-flight cache slot: the first goroutine to need
// the entry fills it inside once; later ones just load.
type metricsEntry struct {
	once sync.Once
	m    *Metrics
}

// coverEntry is the boolean analogue for the conversion caches.
type coverEntry struct {
	once sync.Once
	v    bool
}

// tableEntry is the single-flight slot for periodic-table compilation; t
// stays nil for granularities that are not periodizable.
type tableEntry struct {
	once sync.Once
	t    *PeriodicTable
}

// NewSystem builds an empty system. horizon is the Metrics scanning horizon
// (0 means DefaultHorizon); coverGranules is the number of granules sampled
// by conversion-feasibility checks (0 means 256).
func NewSystem(horizon int, coverGranules int64) *System {
	if coverGranules <= 0 {
		coverGranules = 256
	}
	s := &System{
		horizon:  horizon,
		coverage: coverGranules,
	}
	s.reg.Store(&registry{grans: map[string]Granularity{}})
	return s
}

// Add registers g. Re-adding the same name replaces the granularity and
// drops its caches.
func (s *System) Add(g Granularity) {
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.reg.Load()
	name := g.Name()
	next := &registry{
		grans: make(map[string]Granularity, len(old.grans)+1),
		order: old.order,
	}
	for k, v := range old.grans {
		next.grans[k] = v
	}
	if _, exists := next.grans[name]; !exists {
		next.order = append(append([]string(nil), old.order...), name)
	}
	next.grans[name] = g
	s.reg.Store(next)
	s.metrics.Delete(name)
	s.tables.Delete(name)
	dropPairs := func(m *sync.Map) {
		m.Range(func(key, _ any) bool {
			k := key.([2]string)
			if k[0] == name || k[1] == name {
				m.Delete(key)
			}
			return true
		})
	}
	dropPairs(&s.feasible)
	dropPairs(&s.coverAll)
}

// Get returns the granularity registered under name. Lock-free: one atomic
// snapshot load plus a map lookup.
func (s *System) Get(name string) (Granularity, bool) {
	g, ok := s.reg.Load().grans[name]
	return g, ok
}

// MustGet is Get that panics on unknown names; for use by code that has
// already validated the structure against the system.
func (s *System) MustGet(name string) Granularity {
	g, ok := s.Get(name)
	if !ok {
		panic(fmt.Sprintf("granularity: %q not registered", name))
	}
	return g
}

// Names returns the registered names in insertion order.
func (s *System) Names() []string {
	return append([]string(nil), s.reg.Load().order...)
}

// Metrics returns the (cached) Metrics for the named granularity. The fill
// is single-flight per name: concurrent callers for the same granularity
// wait for one scan instead of duplicating it, and callers for different
// granularities never contend.
func (s *System) Metrics(name string) *Metrics {
	e, _ := s.metrics.LoadOrStore(name, &metricsEntry{})
	entry := e.(*metricsEntry)
	entry.once.Do(func() {
		g, ok := s.Get(name)
		if !ok {
			panic(fmt.Sprintf("granularity: %q not registered", name))
		}
		entry.m = NewMetrics(g, s.horizon)
	})
	return entry.m
}

// Table returns the compiled periodic table for the named granularity, or
// nil when the name is unregistered or the type is not periodizable within
// the builder's caps (DST days and weeks, trading sessions, holiday-aware
// business days). The compilation is single-flight per name, like Metrics;
// callers must treat nil as "use the direct implementation", never as an
// error.
func (s *System) Table(name string) *PeriodicTable {
	// Load first: after the one-time fill this is the whole call, and it
	// never allocates — LoadOrStore would build a discarded entry per call.
	e, ok := s.tables.Load(name)
	if !ok {
		e, _ = s.tables.LoadOrStore(name, &tableEntry{})
	}
	entry := e.(*tableEntry)
	entry.once.Do(func() {
		if g, ok := s.Get(name); ok {
			entry.t = NewPeriodicTable(g)
		}
	})
	return entry.t
}

// TickOf returns the granule of the named granularity containing second t,
// through the periodic table when one exists (O(log spans) arithmetic, no
// locks) and the direct implementation otherwise. ok is false for unknown
// names and uncovered seconds.
func (s *System) TickOf(name string, t int64) (int64, bool) {
	if tb := s.Table(name); tb != nil {
		return tb.TickOf(t)
	}
	g, ok := s.Get(name)
	if !ok {
		return 0, false
	}
	return g.TickOf(t)
}

// Ticker returns the fastest available TickOf for the named granularity —
// the periodic table's when one exists — resolved once so hot loops skip
// the per-call cache lookup. ok is false for unknown names.
func (s *System) Ticker(name string) (func(int64) (int64, bool), bool) {
	if tb := s.Table(name); tb != nil {
		return tb.TickOf, true
	}
	g, ok := s.Get(name)
	if !ok {
		return nil, false
	}
	return g.TickOf, true
}

// CoverOf computes the paper's ⌈z⌉ν_μ for registered granularity names,
// through the periodic tables when both sides have one and the direct
// calendar computation otherwise. ok is false when either name is unknown
// or the cover is undefined.
func (s *System) CoverOf(nu, mu string, z int64) (int64, bool) {
	nt, mt := s.Table(nu), s.Table(mu)
	if nt != nil && mt != nil {
		return mt.CoverIn(nt, z)
	}
	ng, ok := s.Get(nu)
	if !ok {
		return 0, false
	}
	mg, ok := s.Get(mu)
	if !ok {
		return 0, false
	}
	return Cover(ng, mg, z)
}

// ConversionFeasible reports whether a constraint in src may be soundly
// converted into dst (dst covers everything src covers). Results are cached
// with a per-pair single-flight fill.
func (s *System) ConversionFeasible(src, dst string) bool {
	if src == dst {
		return true
	}
	e, _ := s.feasible.LoadOrStore([2]string{src, dst}, &coverEntry{})
	entry := e.(*coverEntry)
	entry.once.Do(func() {
		entry.v = Covers(s.MustGet(dst), s.MustGet(src), s.coverage)
	})
	return entry.v
}

// CoverAlways reports whether every granule of src (sampled over the
// verification horizon) is contained in a single granule of dst. Results
// are cached with a per-pair single-flight fill.
func (s *System) CoverAlways(src, dst string) bool {
	if src == dst {
		return true
	}
	e, _ := s.coverAll.LoadOrStore([2]string{src, dst}, &coverEntry{})
	entry := e.(*coverEntry)
	entry.once.Do(func() {
		entry.v = AlwaysCovered(s.MustGet(dst), s.MustGet(src), s.coverage)
	})
	return entry.v
}

// familyBuilders is the single source of truth for the default registry:
// every family the default System carries, in registration order. The
// oracle generator samples families from this exact list (via FamilyNames),
// so a family added here is automatically enrolled in the differential
// zoo — TestZooCoverage fails loudly if sampling ever misses one.
var familyBuilders = []struct {
	name  string
	build func() Granularity
}{
	// The paper's standard types.
	{"second", func() Granularity { return Second() }},
	{"minute", func() Granularity { return Minute() }},
	{"hour", func() Granularity { return Hour() }},
	{"day", func() Granularity { return Day() }},
	{"week", func() Granularity { return Week() }},
	{"month", func() Granularity { return Month() }},
	{"year", func() Granularity { return Year() }},
	{"b-day", func() Granularity { return BDay() }},
	{"b-week", func() Granularity { return BWeek() }},
	{"b-month", func() Granularity { return BMonth() }},
	{"weekend", func() Granularity { return Weekend() }},
	// The calendar zoo: zone-local civil units with DST shifts (23h/25h
	// days), 4-4-5 fiscal types, exchange trading sessions, and a composed
	// selection expression.
	{"day-et", func() Granularity { return NewZonedDay("day-et", calendar.USEastern()) }},
	{"week-et", func() Granularity { return NewZonedWeek("week-et", calendar.USEastern()) }},
	{"month-et", func() Granularity { return NewZonedMonth("month-et", calendar.USEastern()) }},
	{"day-cet", func() Granularity { return NewZonedDay("day-cet", calendar.CentralEuropean()) }},
	{"f-week", func() Granularity { return NewFiscalWeek("f-week", defaultFiscal()) }},
	{"f-month", func() Granularity { return NewFiscalMonth("f-month", defaultFiscal()) }},
	{"f-quarter", func() Granularity {
		return GroupBy("f-quarter", NewFiscalMonth("f-quarter-months", defaultFiscal()), 3)
	}},
	{"f-year", func() Granularity { return NewFiscalYear("f-year", defaultFiscal()) }},
	{"session", func() Granularity { return mustGran(NewTradingSession("session", defaultTradingConfig())) }},
	{"t-week", func() Granularity { return mustGran(NewTradingWeek("t-week", defaultTradingConfig())) }},
	{"payday", func() Granularity { return NthOf("payday", Month(), BDay(), -1) }},
}

// defaultFiscal is the registry's fiscal calendar: 4-4-5 quarters, years
// ending on the last Saturday of January (the NRF retail convention, with
// the 4-4-5 split).
func defaultFiscal() *Fiscal {
	f, err := NewFiscal(FiscalConfig{EndMonth: 1, EndWeekday: calendar.Saturday, Pattern: [3]int{4, 4, 5}})
	if err != nil {
		panic(err)
	}
	return f
}

// defaultTradingConfig is the registry's exchange schedule: NYSE-shaped
// 09:30–16:00 sessions, US federal holidays, 13:00 early closes.
func defaultTradingConfig() TradingConfig {
	return TradingConfig{
		Open:       9*3600 + 30*60,
		Close:      16 * 3600,
		Holidays:   calendar.USFederal(),
		HalfDays:   calendar.USHalfDays(),
		EarlyClose: 13 * 3600,
	}
}

func mustGran(g Granularity, err error) Granularity {
	if err != nil {
		panic(err)
	}
	return g
}

// familyCache shares one granularity object per family process-wide, so the
// memoized state inside business-day scans, NthOf picks and the like is
// paid once no matter how many Systems (or oracle instances) are alive.
// Every family object is safe for concurrent use.
var familyCache struct {
	once sync.Once
	m    map[string]Granularity
}

func sharedFamilies() map[string]Granularity {
	familyCache.once.Do(func() {
		familyCache.m = make(map[string]Granularity, len(familyBuilders))
		for _, fb := range familyBuilders {
			familyCache.m[fb.name] = fb.build()
		}
	})
	return familyCache.m
}

// FamilyNames returns the names of every default-registry family, in
// registration order. This is the sampling pool of the oracle generator.
func FamilyNames() []string {
	names := make([]string, len(familyBuilders))
	for i, fb := range familyBuilders {
		names[i] = fb.name
	}
	return names
}

// NewFamily returns the shared granularity object for a default-registry
// family name, or false for unknown names.
func NewFamily(name string) (Granularity, bool) {
	g, ok := sharedFamilies()[name]
	return g, ok
}

// Default returns a system preloaded with the full registry: the paper's
// standard types (second, minute, hour, day, week, month, year, b-day,
// b-week, b-month, weekend) plus the calendar zoo — US-Eastern and CET
// zone-local units with DST shifts, the 4-4-5 fiscal family, NYSE-shaped
// trading sessions and the payday selection. Register BDayUS etc. for
// holiday-aware business variants.
func Default() *System {
	s := NewSystem(0, 0)
	for _, fb := range familyBuilders {
		s.Add(sharedFamilies()[fb.name])
	}
	return s
}
