package granularity

import (
	"math/rand"
	"testing"
)

// zooSystem registers the full registry zoo: every standard type plus the
// holiday-aware variants and combinator types.
func zooSystem() *System {
	s := Default()
	s.Add(BDayUS())
	s.Add(BMonthUS())
	s.Add(Quarter())
	s.Add(NMonth(2))
	return s
}

func TestTableLayout(t *testing.T) {
	s := zooSystem()
	cases := []struct {
		name           string
		wantTable      bool
		prefix, perGrn int64
	}{
		{"second", true, 0, 1},
		{"day", true, 0, 1},
		{"week", true, 1, 1},
		{"weekend", true, 1, 1},
		{"b-day", true, 0, 5},
		{"b-week", true, 1, 1},
		{"month", true, 0, 4800},
		{"year", true, 0, 400},
		{"b-month", true, 0, 4800},
		{"quarter", true, 0, 1600},
		{"2-month", true, 0, 2400},
	}
	for _, c := range cases {
		tb := s.Table(c.name)
		if (tb != nil) != c.wantTable {
			t.Errorf("%s: table presence = %v, want %v", c.name, tb != nil, c.wantTable)
			continue
		}
		if tb == nil {
			continue
		}
		if tb.Prefix() != c.prefix || tb.PeriodGranules() != c.perGrn {
			t.Errorf("%s: table (prefix=%d, n=%d), want (%d, %d)",
				c.name, tb.Prefix(), tb.PeriodGranules(), c.prefix, c.perGrn)
		}
	}
	// b-month-us is 400-year periodic with 4800 granules: fits the cap.
	if tb := s.Table("b-month-us"); tb == nil {
		t.Errorf("b-month-us: want a holiday-aware 400-year table, got none")
	} else if tb.PeriodGranules() != 4800 {
		t.Errorf("b-month-us: n=%d, want 4800", tb.PeriodGranules())
	}
	// The 400-year holiday cycle has ~100k b-day granules: beyond the cap,
	// so b-day-us gets no table and resolves directly.
	if tb := s.Table("b-day-us"); tb != nil {
		t.Errorf("b-day-us: want no table, got (prefix=%d, n=%d)", tb.Prefix(), tb.PeriodGranules())
	}
}

// TestTableMatchesDirect is the table-vs-direct property check: for every
// registered type, TickOf/Span/Intervals through System (table-backed when
// one exists) must agree with the granularity's own implementation, near
// the timeline start, across period boundaries, and at random seconds.
func TestTableMatchesDirect(t *testing.T) {
	s := zooSystem()
	rng := rand.New(rand.NewSource(20260808))
	const day = 86400
	for _, name := range s.Names() {
		g := s.MustGet(name)
		tb := s.Table(name)
		// Sampled seconds: dense early coverage plus random probes spread
		// over ~80 years (several periods of every weekly type, inside the
		// first period of the 400-year types — their period boundary is
		// probed via granule indices below).
		var ts []int64
		for t0 := int64(1); t0 < 40*day; t0 += 3571 {
			ts = append(ts, t0)
		}
		for i := 0; i < 400; i++ {
			ts = append(ts, 1+rng.Int63n(80*365*day))
		}
		for _, t0 := range ts {
			gz, gok := g.TickOf(t0)
			sz, sok := s.TickOf(name, t0)
			if gz != sz || gok != sok {
				t.Fatalf("%s: TickOf(%d) table (%d,%v) != direct (%d,%v)", name, t0, sz, sok, gz, gok)
			}
		}
		if tb == nil {
			continue
		}
		// Granule indices: early, random, and straddling the period seam.
		var zs []int64
		for z := int64(1); z <= 64; z++ {
			zs = append(zs, z)
		}
		n := tb.Prefix() + tb.PeriodGranules()
		for _, z := range []int64{n - 1, n, n + 1, 2*n - 1, 2 * n, 2*n + 1, 5*n + 3} {
			if z >= 1 {
				zs = append(zs, z)
			}
		}
		for i := 0; i < 64; i++ {
			zs = append(zs, 1+rng.Int63n(3*n))
		}
		for _, z := range zs {
			gi, gok := g.Intervals(z)
			ti, tok := tb.Intervals(z)
			if gok != tok || len(gi) != len(ti) {
				t.Fatalf("%s: Intervals(%d) table (%v,%v) != direct (%v,%v)", name, z, ti, tok, gi, gok)
			}
			for i := range gi {
				if gi[i] != ti[i] {
					t.Fatalf("%s: Intervals(%d)[%d] table %v != direct %v", name, z, i, ti[i], gi[i])
				}
			}
			gs, gok := g.Span(z)
			tsp, tok := tb.Span(z)
			if gok != tok || (gok && gs != tsp) {
				t.Fatalf("%s: Span(%d) table (%v,%v) != direct (%v,%v)", name, z, tsp, tok, gs, gok)
			}
			// Round-trip: the table's TickOf must place the granule's own
			// seconds back into it.
			if gok {
				if z2, ok := tb.TickOf(gs.First); !ok || z2 != z {
					t.Fatalf("%s: TickOf(Span(%d).First) = (%d,%v)", name, z, z2, ok)
				}
			}
		}
	}
}

// TestTableCoverMatchesDirect asserts the satellite property: table-driven
// ⌈z⌉ν_μ equals the direct calendar computation across the registry zoo,
// including the undefined cases (straddling granules, gaps).
func TestTableCoverMatchesDirect(t *testing.T) {
	s := zooSystem()
	names := s.Names()
	for _, nu := range names {
		for _, mu := range names {
			gNu, gMu := s.MustGet(nu), s.MustGet(mu)
			for z := int64(0); z <= 90; z++ {
				want, wok := Cover(gNu, gMu, z)
				got, gok := s.CoverOf(nu, mu, z)
				if want != got || wok != gok {
					t.Fatalf("CoverOf(%s, %s, %d) = (%d,%v), direct (%d,%v)", nu, mu, z, got, gok, want, wok)
				}
			}
		}
	}
}

// TestTableCoverInDeepGranules drives CoverIn across the 400-year period
// seam of the month-family tables, where the relative-offset arithmetic has
// to re-anchor.
func TestTableCoverInDeepGranules(t *testing.T) {
	s := zooSystem()
	mo, bmo, yr := s.Table("month"), s.Table("b-month"), s.Table("year")
	if mo == nil || bmo == nil || yr == nil {
		t.Fatal("expected tables for month, b-month, year")
	}
	gMo, gBmo, gYr := s.MustGet("month"), s.MustGet("b-month"), s.MustGet("year")
	for _, z := range []int64{4799, 4800, 4801, 4802, 9600, 9601, 14403} {
		want, wok := Cover(gYr, gMo, z)
		got, gok := mo.CoverIn(yr, z)
		if want != got || wok != gok {
			t.Fatalf("month->year cover at %d: table (%d,%v), direct (%d,%v)", z, got, gok, want, wok)
		}
		want, wok = Cover(gMo, gBmo, z)
		got, gok = bmo.CoverIn(mo, z)
		if want != got || wok != gok {
			t.Fatalf("b-month->month cover at %d: table (%d,%v), direct (%d,%v)", z, got, gok, want, wok)
		}
	}
}

// TestSystemTableInvalidation: re-Adding a granularity under the same name
// must drop the compiled table along with the metrics.
func TestSystemTableInvalidation(t *testing.T) {
	s := NewSystem(64, 16)
	s.Add(NewUniform("u", 10))
	if z, ok := s.TickOf("u", 25); !ok || z != 3 {
		t.Fatalf("TickOf(u,25) = (%d,%v)", z, ok)
	}
	s.Add(NewUniform("u", 100))
	if z, ok := s.TickOf("u", 25); !ok || z != 1 {
		t.Fatalf("after re-add: TickOf(u,25) = (%d,%v), want (1,true)", z, ok)
	}
}

// TestMetricsPrecomputedMatchesScan cross-checks the precomputed metric
// arrays against a direct rescan of the spans, plus spot checks of the
// beyond-horizon closed forms' soundness.
func TestMetricsPrecomputedMatchesScan(t *testing.T) {
	s := Default()
	for _, name := range []string{"week", "month", "b-day", "b-month", "weekend"} {
		m := s.Metrics(name)
		g := s.MustGet(name)
		var starts, ends []int64
		for z := int64(1); z <= int64(len(m.starts)); z++ {
			iv, ok := g.Span(z)
			if !ok {
				break
			}
			starts = append(starts, iv.First)
			ends = append(ends, iv.Last)
		}
		limit := int64(len(starts))
		for k := int64(1); k <= m.exactK(); k++ {
			minS, maxS := int64(1)<<62, int64(0)
			for i := int64(0); i+k <= limit; i++ {
				sp := ends[i+k-1] - starts[i] + 1
				if sp < minS {
					minS = sp
				}
				if sp > maxS {
					maxS = sp
				}
			}
			if got := m.MinSize(k); got != minS {
				t.Fatalf("%s: MinSize(%d) = %d, scan %d", name, k, got, minS)
			}
			if got := m.MaxSize(k); got != maxS {
				t.Fatalf("%s: MaxSize(%d) = %d, scan %d", name, k, got, maxS)
			}
			minG := int64(1) << 62
			for i := int64(0); i+k < limit; i++ {
				if gp := starts[i+k] - ends[i]; gp < minG {
					minG = gp
				}
			}
			if minG < int64(1)<<62 {
				if got := m.MinGap(k); got != minG {
					t.Fatalf("%s: MinGap(%d) = %d, scan %d", name, k, got, minG)
				}
			}
		}
		// Beyond the exact range the closed forms must stay sound bounds.
		k := m.exactK() + 7
		if m.MinSize(k) > m.MaxSize(k) {
			t.Fatalf("%s: MinSize(%d) > MaxSize(%d)", name, k, k)
		}
		if m.MinGap(k) < m.MinGap(k-1) {
			t.Fatalf("%s: MinGap not monotone at %d", name, k)
		}
	}
}
