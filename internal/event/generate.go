package event

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/calendar"
)

// Poisson generates a background stream: each of the given types occurs
// independently with expected rate events-per-day across [start, end]
// (second timestamps). Deterministic for a fixed seed.
func Poisson(types []Type, ratePerDay float64, start, end int64, seed int64) Sequence {
	rng := rand.New(rand.NewSource(seed))
	var s Sequence
	days := float64(end-start+1) / float64(calendar.SecondsPerDay)
	for _, typ := range types {
		n := poissonCount(rng, ratePerDay*days)
		for i := 0; i < n; i++ {
			t := start + rng.Int63n(end-start+1)
			s = append(s, Event{Type: typ, Time: t})
		}
	}
	s.Sort()
	return s
}

// poissonCount draws a Poisson(mean) variate by inversion (mean kept modest
// by callers).
func poissonCount(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's method is fine for the means the experiments use.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10_000_000 {
			return k // safety bound; unreachable for sane means
		}
	}
}

// Pattern is a template of events at offsets relative to an anchor; Plant
// injects instances of it into a sequence. Mining experiments use it to
// embed complex-event occurrences at a known frequency.
type Pattern []Event // Time fields hold offsets >= 0 relative to the anchor

// Plant returns s plus one instance of the pattern at each anchor time.
func Plant(s Sequence, p Pattern, anchors []int64) Sequence {
	var extra Sequence
	for _, a := range anchors {
		for _, e := range p {
			extra = append(extra, Event{Type: e.Type, Time: a + e.Time})
		}
	}
	extra.Sort()
	return Merge(s, extra)
}

// StockConfig drives GenerateStock.
type StockConfig struct {
	Symbols   []string // e.g. "IBM", "HP"
	StartYear int      // civil year of the first tick
	Days      int      // trading horizon in calendar days
	StepMin   int      // minutes between price observations (paper: 15)
	RiseProb  float64  // probability a step is a rise (vs fall)
	MoveProb  float64  // probability a step emits an event at all
	Seed      int64
}

// GenerateStock produces a price-fluctuation sequence like the paper's
// Example 1: per symbol, "SYM-rise" / "SYM-fall" events every StepMin
// minutes of each business day, plus quarterly "SYM-earnings-report" events
// on the first business day after each quarter.
func GenerateStock(cfg StockConfig) Sequence {
	if cfg.StepMin <= 0 {
		cfg.StepMin = 15
	}
	if cfg.MoveProb == 0 {
		cfg.MoveProb = 0.25
	}
	if cfg.RiseProb == 0 {
		cfg.RiseProb = 0.5
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	startRata := calendar.RataOf(calendar.Date{Year: cfg.StartYear, Month: 1, Day: 1})
	var s Sequence
	for d := 0; d < cfg.Days; d++ {
		rata := startRata + int64(d)
		if !calendar.IsBusinessDay(rata, nil) {
			continue
		}
		dayStart := (rata-1)*calendar.SecondsPerDay + 1
		// Trading session 09:30..16:00.
		open := dayStart + 9*3600 + 30*60
		close := dayStart + 16*3600
		for t := open; t <= close; t += int64(cfg.StepMin) * 60 {
			for _, sym := range cfg.Symbols {
				if rng.Float64() >= cfg.MoveProb {
					continue
				}
				kind := "-fall"
				if rng.Float64() < cfg.RiseProb {
					kind = "-rise"
				}
				s = append(s, Event{Type: Type(sym + kind), Time: t})
			}
		}
		// Earnings on the first business day of each quarter at 17:00.
		date := calendar.DateOf(rata)
		if date.Day <= 3 && (date.Month-1)%3 == 0 && isFirstBDayOfMonth(rata) {
			for _, sym := range cfg.Symbols {
				s = append(s, Event{Type: Type(sym + "-earnings-report"), Time: dayStart + 17*3600})
			}
		}
	}
	s.Sort()
	return s
}

func isFirstBDayOfMonth(rata int64) bool {
	if !calendar.IsBusinessDay(rata, nil) {
		return false
	}
	d := calendar.DateOf(rata)
	first := calendar.RataOf(calendar.Date{Year: d.Year, Month: d.Month, Day: 1})
	for r := first; r < rata; r++ {
		if calendar.IsBusinessDay(r, nil) {
			return false
		}
	}
	return true
}

// ATMConfig drives GenerateATM.
type ATMConfig struct {
	Accounts  int
	StartYear int
	Days      int
	PerDay    float64 // expected transactions per account per day
	Seed      int64
}

// GenerateATM produces a bank-transaction stream: per account,
// "deposit-K", "withdrawal-K" and "balance-K" events at random daytime
// instants, the kind of sequence the paper's ATM motivation describes.
func GenerateATM(cfg ATMConfig) Sequence {
	if cfg.PerDay == 0 {
		cfg.PerDay = 0.7
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	startRata := calendar.RataOf(calendar.Date{Year: cfg.StartYear, Month: 1, Day: 1})
	kinds := []string{"deposit", "withdrawal", "balance"}
	var s Sequence
	for d := 0; d < cfg.Days; d++ {
		dayStart := (startRata+int64(d)-1)*calendar.SecondsPerDay + 1
		for a := 0; a < cfg.Accounts; a++ {
			n := poissonCount(rng, cfg.PerDay)
			for i := 0; i < n; i++ {
				// Between 07:00 and 23:00.
				t := dayStart + 7*3600 + rng.Int63n(16*3600)
				kind := kinds[rng.Intn(len(kinds))]
				s = append(s, Event{Type: Type(fmt.Sprintf("%s-%d", kind, a)), Time: t})
			}
		}
	}
	s.Sort()
	return s
}

// PlantFaultConfig drives GeneratePlant.
type PlantFaultConfig struct {
	Machines  int
	StartYear int
	Days      int
	Seed      int64
	// CascadeProb is the chance an overheat leads to a malfunction within
	// the same business day and a shutdown the next business day — the
	// planted multi-granularity causal chain.
	CascadeProb float64
}

// GeneratePlant produces an industrial-plant malfunction log with planted
// overheat -> malfunction (same b-day) -> shutdown (next b-day) cascades on
// top of noise readings.
func GeneratePlant(cfg PlantFaultConfig) Sequence {
	if cfg.CascadeProb == 0 {
		cfg.CascadeProb = 0.6
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	startRata := calendar.RataOf(calendar.Date{Year: cfg.StartYear, Month: 1, Day: 1})
	var s Sequence
	for d := 0; d < cfg.Days; d++ {
		rata := startRata + int64(d)
		if !calendar.IsBusinessDay(rata, nil) {
			continue
		}
		dayStart := (rata-1)*calendar.SecondsPerDay + 1
		for m := 0; m < cfg.Machines; m++ {
			id := fmt.Sprintf("m%d", m)
			// Noise: pressure readings.
			if rng.Float64() < 0.3 {
				s = append(s, Event{Type: Type("pressure-drop-" + id), Time: dayStart + rng.Int63n(86400)})
			}
			if rng.Float64() < 0.15 { // overheat
				t0 := dayStart + 8*3600 + rng.Int63n(6*3600)
				s = append(s, Event{Type: Type("overheat-" + id), Time: t0})
				if rng.Float64() < cfg.CascadeProb {
					// Malfunction 1-4 hours later, same business day.
					t1 := t0 + 3600 + rng.Int63n(3*3600)
					s = append(s, Event{Type: Type("malfunction-" + id), Time: t1})
					// Shutdown the next business day morning.
					next := rata + 1
					for !calendar.IsBusinessDay(next, nil) {
						next++
					}
					t2 := (next-1)*calendar.SecondsPerDay + 1 + 6*3600 + rng.Int63n(3600)
					s = append(s, Event{Type: Type("shutdown-" + id), Time: t2})
				}
			}
		}
	}
	s.Sort()
	return s
}

// AccessConfig drives GenerateAccess.
type AccessConfig struct {
	Hosts     int // monitored hosts
	StartYear int
	Days      int
	PerDay    float64 // expected benign accesses per host per day
	Seed      int64
	// IntrusionProb is the per-host-per-week chance of a planted intrusion
	// chain: a scan, failed logins within the same hour, and a breach on
	// the same calendar day.
	IntrusionProb float64
}

// GenerateAccess produces a network-access log — the paper's "each access
// to a computer by an external network" motivation — with planted
// scan -> failed-login (same hour) -> breach (same day) intrusion chains.
func GenerateAccess(cfg AccessConfig) Sequence {
	if cfg.PerDay == 0 {
		cfg.PerDay = 3
	}
	if cfg.IntrusionProb == 0 {
		cfg.IntrusionProb = 0.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	startRata := calendar.RataOf(calendar.Date{Year: cfg.StartYear, Month: 1, Day: 1})
	var s Sequence
	for d := 0; d < cfg.Days; d++ {
		dayStart := (startRata+int64(d)-1)*calendar.SecondsPerDay + 1
		for h := 0; h < cfg.Hosts; h++ {
			id := fmt.Sprintf("h%d", h)
			n := poissonCount(rng, cfg.PerDay)
			for i := 0; i < n; i++ {
				s = append(s, Event{Type: Type("access-" + id), Time: dayStart + rng.Int63n(86400)})
			}
			// Weekly intrusion roll on Mondays.
			if calendar.WeekdayOf(startRata+int64(d)) == calendar.Monday && rng.Float64() < cfg.IntrusionProb {
				t0 := dayStart + 1*3600 + rng.Int63n(18*3600)
				hourStart := ((t0 - 1) / 3600) * 3600 // floor to the hour
				if t0 == hourStart+3600 {
					// A scan on its hour's last second leaves no later
					// second for the failed logins: move it one earlier.
					t0--
				}
				s = append(s, Event{Type: Type("scan-" + id), Time: t0})
				// Failed logins in the same hour as the scan.
				for k := 0; k < 3; k++ {
					tf := hourStart + 1 + rng.Int63n(3600)
					if tf <= t0 {
						tf = t0 + 1 + rng.Int63n(3600-(t0-hourStart))
					}
					s = append(s, Event{Type: Type("failed-login-" + id), Time: tf})
				}
				// Breach later the same day.
				tb := t0 + 3600 + rng.Int63n(dayStart+86399-t0-3600+1)
				s = append(s, Event{Type: Type("breach-" + id), Time: tb})
			}
		}
	}
	s.Sort()
	return s
}
