package granularity

// This file derives PeriodHints for selection-style combinators (NthOf,
// Intersect): granularities whose granules are picked out of an outer
// pattern according to how it aligns with other component patterns. When
// every component is (hinted) periodic, the joint alignment repeats every
// lcm of the component periods, so the selection repeats too; the hint is
// found by simulating the selection over exactly one joint period. Like
// every other hint it is verified by the table builder, never trusted — a
// wrong simulation degrades to the generic detector or to no table, never to
// a wrong table.

const (
	// selectionHintMaxOuter caps how many outer granules one joint period
	// may contain before the simulation gives up (the table cap is 8192
	// granules anyway, and each scanned outer granule costs an inner scan).
	selectionHintMaxOuter = 16384
	// selectionHintMaxPeriod caps the joint period: one 400-year Gregorian
	// cycle, the longest period anything in the registry closes at.
	selectionHintMaxPeriod = gregorianCycleSeconds
)

// hintedPeriod extracts a component's periodic structure: the absolute
// second its periodic part starts at and its period length in seconds.
func hintedPeriod(g Granularity) (start, period int64, ok bool) {
	ph, isHinted := g.(PeriodHint)
	if !isHinted {
		return 0, 0, false
	}
	prefix, n := ph.PeriodHint()
	if n < 1 || prefix < 0 {
		return 0, 0, false
	}
	s1, ok1 := g.Span(prefix + 1)
	s2, ok2 := g.Span(prefix + n + 1)
	if !ok1 || !ok2 || s2.First <= s1.First {
		return 0, 0, false
	}
	return s1.First, s2.First - s1.First, true
}

// selectionHint simulates picked(k) over outer granules k and returns a
// (prefix, n) hint for the dense selection granularity, or (0, 0) when any
// component lacks a usable hint or the joint period is too large. picked
// reports whether outer granule k contributes a result granule and whether
// it exists; others are the non-outer components whose alignment matters.
func selectionHint(outer Granularity, picked func(k int64) (bool, bool), others ...Granularity) (int64, int64) {
	oStart, oPeriod, ok := hintedPeriod(outer)
	if !ok {
		return 0, 0
	}
	joint := oPeriod
	tstar := oStart
	for _, g := range others {
		s, p, ok := hintedPeriod(g)
		if !ok {
			return 0, 0
		}
		joint = lcm64(joint, p)
		if joint <= 0 || joint > selectionHintMaxPeriod {
			return 0, 0
		}
		if s > tstar {
			tstar = s
		}
	}
	// Outer granules per joint period: the outer hint says n granules per
	// oPeriod seconds, and joint is a whole multiple of oPeriod.
	_, oN := outer.(PeriodHint).PeriodHint()
	outersPerJoint := joint / oPeriod * oN
	if outersPerJoint < 1 || outersPerJoint > selectionHintMaxOuter {
		return 0, 0
	}
	// First outer granule starting at or after every component's periodic
	// part: from there on the joint alignment repeats.
	k0 := int64(1)
	for {
		sp, ok := outer.Span(k0)
		if !ok {
			return 0, 0
		}
		if sp.First >= tstar {
			break
		}
		k0++
		if k0 > selectionHintMaxOuter {
			return 0, 0
		}
	}
	if k0-1+outersPerJoint > selectionHintMaxOuter {
		return 0, 0
	}
	var prefix, n int64
	for k := int64(1); k < k0; k++ {
		p, exists := picked(k)
		if !exists {
			return 0, 0
		}
		if p {
			prefix++
		}
	}
	for k := k0; k < k0+outersPerJoint; k++ {
		p, exists := picked(k)
		if !exists {
			return 0, 0
		}
		if p {
			n++
		}
	}
	if n < 1 {
		return 0, 0
	}
	return prefix, n
}
