package granularity

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// This file implements the periodic-set conversion tables: every registry
// granularity that is (eventually) periodic is lowered to a minimal periodic
// set in the sense of Bettini–Mascetti–Wang — a finite prefix of irregular
// granules followed by a repeating pattern of granule shapes over a fixed
// period in seconds — so TickOf, Span, Intervals and the cover operator
// ⌈z⌉ν_μ become O(log spans-per-period) table lookups instead of calendar
// arithmetic. Granularities that are not periodic within the builder's caps
// — holiday-aware b-day, trading sessions and the DST-shifted zoned days and
// weeks, whose minimal period only closes at the 400-year Gregorian cycle
// with far more granules than the cap — get no table, and System resolves
// them through their own TickOf/Span/Intervals arithmetic (DESIGN.md, "No
// table for aperiodic families", records the measurements behind this).

// PeriodHint is an optional Granularity extension declaring (not necessarily
// minimal) periodic structure: after the first prefix granules, the pattern
// of granule shapes repeats every n granules, with the period length in
// seconds given by the spans themselves. A hint with n < 1 means "no hint".
// Hints are verified by the table builder, never trusted: a wrong hint
// degrades to the generic detector, not to a wrong table.
type PeriodHint interface {
	PeriodHint() (prefix, n int64)
}

// BoundaryHint is an optional Granularity extension listing a few second
// indices where the type's behaviour changes shape — DST transitions,
// 53-week fiscal year ends, trading sessions after a holiday gap, early
// closes. The oracle generator anchors its brute-force horizons near these
// so the differential contracts sample the interesting boundaries instead
// of the timeline's uneventful origin.
type BoundaryHint interface {
	InterestingSeconds() []int64
}

const (
	// tableMaxGranules caps prefix + granules-per-period: the 400-year
	// Gregorian cycle of month (4800 granules) must fit, holiday-aware
	// business-day (~104k granules per cycle) must not.
	tableMaxGranules = 8192
	// tableDetectGranules is how many granules the generic (hint-less)
	// detector samples; candidate periods must repeat at least twice inside
	// the sample.
	tableDetectGranules = 512
	// tableDetectMaxPrefix bounds the irregular prefix the generic detector
	// will consider (hinted prefixes may be larger).
	tableDetectMaxPrefix = 8
)

// PeriodicTable is the compiled form of an eventually-periodic granularity:
// explicit spans for the irregular prefix granules, then one period's worth
// of span offsets relative to the period origin. All lookups are pure
// arithmetic plus a binary search over one period's spans. A PeriodicTable
// is immutable and safe for concurrent use.
type PeriodicTable struct {
	name    string
	uniform int64 // > 0: gapless fixed-size granules, no span tables needed

	prefix int64 // number of irregular leading granules
	n      int64 // granules per period
	period int64 // period length in seconds
	origin int64 // absolute second at which granule prefix+1 starts

	// Prefix spans, in absolute seconds, sorted; preGranLo[i]..preGranLo[i+1]
	// delimit the spans of prefix granule i (0-based).
	preFirst, preLast []int64
	preGranLo         []int32

	// One period's spans, as offsets in [0, period) relative to the period
	// origin; granLo[j]..granLo[j+1] delimit the spans of periodic granule j.
	first, last []int64
	spanGran    []int32
	granLo      []int32
}

// Name returns the source granularity's name.
func (pt *PeriodicTable) Name() string { return pt.name }

// Prefix returns the number of irregular leading granules.
func (pt *PeriodicTable) Prefix() int64 { return pt.prefix }

// PeriodGranules returns the number of granules per period (1 for uniform
// tables).
func (pt *PeriodicTable) PeriodGranules() int64 {
	if pt.uniform > 0 {
		return 1
	}
	return pt.n
}

// PeriodSeconds returns the period length in seconds.
func (pt *PeriodicTable) PeriodSeconds() int64 {
	if pt.uniform > 0 {
		return pt.uniform
	}
	return pt.period
}

// Bounded always reports false: no table has a bounded form. It remains
// only because the tempobench module still calls it.
func (pt *PeriodicTable) Bounded() bool { return false }

// Signature digests the table layout (prefix, period, every span offset) so
// checkpoint fingerprints can bind a snapshot to the exact table build it
// was taken under: same name, different table ⇒ different signature.
func (pt *PeriodicTable) Signature() string {
	h := sha256.New()
	// The constant |b0 field keeps every signature, and with it every TAG
	// checkpoint fingerprint, equal to earlier builds' (TestFingerprintGolden).
	fmt.Fprintf(h, "%s|u%d|p%d|n%d|P%d|o%d|b0\n", pt.name, pt.uniform, pt.prefix, pt.n, pt.period, pt.origin)
	for i := range pt.preFirst {
		fmt.Fprintf(h, "q%d:%d-%d\n", pt.preGranOf(i), pt.preFirst[i], pt.preLast[i])
	}
	for i := range pt.first {
		fmt.Fprintf(h, "s%d:%d-%d\n", pt.spanGran[i], pt.first[i], pt.last[i])
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// preGranOf returns the prefix granule owning prefix span i.
func (pt *PeriodicTable) preGranOf(i int) int32 {
	for g := 0; g+1 < len(pt.preGranLo); g++ {
		if int32(i) < pt.preGranLo[g+1] {
			return int32(g)
		}
	}
	return 0
}

// TickOf returns the granule containing second t, exactly as the source
// granularity's TickOf does.
func (pt *PeriodicTable) TickOf(t int64) (int64, bool) {
	if t < 1 {
		return 0, false
	}
	if pt.uniform > 0 {
		return (t-1)/pt.uniform + 1, true
	}
	if t < pt.origin {
		// Inside the irregular prefix (or a leading gap).
		i := sort.Search(len(pt.preFirst), func(k int) bool { return pt.preFirst[k] > t }) - 1
		if i < 0 || t > pt.preLast[i] {
			return 0, false
		}
		return int64(pt.preGranOf(i)) + 1, true
	}
	off := t - pt.origin
	p := off / pt.period
	rel := off % pt.period
	i := sort.Search(len(pt.first), func(k int) bool { return pt.first[k] > rel }) - 1
	if i < 0 || rel > pt.last[i] {
		return 0, false
	}
	return pt.prefix + p*pt.n + int64(pt.spanGran[i]) + 1, true
}

// Span returns the convex hull of granule z.
func (pt *PeriodicTable) Span(z int64) (Interval, bool) {
	base, first, last, lo, hi, ok := pt.granSpans(z)
	if !ok {
		return Interval{}, false
	}
	return Interval{First: base + first[lo], Last: base + last[hi-1]}, true
}

// Intervals returns the maximal intervals of granule z. AppendIntervals is
// the allocation-free variant.
func (pt *PeriodicTable) Intervals(z int64) ([]Interval, bool) {
	return pt.AppendIntervals(nil, z)
}

// AppendIntervals appends granule z's maximal intervals to dst.
func (pt *PeriodicTable) AppendIntervals(dst []Interval, z int64) ([]Interval, bool) {
	base, first, last, lo, hi, ok := pt.granSpans(z)
	if !ok {
		return dst, false
	}
	for i := lo; i < hi; i++ {
		dst = append(dst, Interval{First: base + first[i], Last: base + last[i]})
	}
	return dst, true
}

// granSpans resolves granule z to a base offset plus a range [lo, hi) into
// span arrays: the granule's intervals are [base+first[i], base+last[i]].
func (pt *PeriodicTable) granSpans(z int64) (base int64, first, last []int64, lo, hi int32, ok bool) {
	if z < 1 {
		return 0, nil, nil, 0, 0, false
	}
	if pt.uniform > 0 {
		// Synthesize the single span of a uniform granule.
		return 0, uniformFirst(z, pt.uniform), uniformLast(z, pt.uniform), 0, 1, true
	}
	if z <= pt.prefix {
		return 0, pt.preFirst, pt.preLast, pt.preGranLo[z-1], pt.preGranLo[z], true
	}
	j0 := z - 1 - pt.prefix
	p := j0 / pt.n
	j := j0 % pt.n
	return pt.origin + p*pt.period, pt.first, pt.last, pt.granLo[j], pt.granLo[j+1], true
}

// uniformFirst/uniformLast build one-element span views for uniform
// granules. The returned slices are freshly allocated; uniform callers on
// hot paths (TickOf, CoverIn) never reach here.
func uniformFirst(z, size int64) []int64 { return []int64{(z-1)*size + 1} }
func uniformLast(z, size int64) []int64  { return []int64{z * size} }

// CoverIn computes the paper's ⌈z⌉ν_μ — the granule of nu containing
// granule z of mu — entirely from the two tables, with no allocation. It
// agrees with Cover(nu, mu, z) on every input.
func (mu *PeriodicTable) CoverIn(nu *PeriodicTable, z int64) (int64, bool) {
	if mu.uniform > 0 {
		if z < 1 {
			return 0, false
		}
		return nu.coverInterval((z-1)*mu.uniform+1, z*mu.uniform)
	}
	mb, mf, ml, mlo, mhi, ok := mu.granSpans(z)
	if !ok || mlo == mhi {
		return 0, false
	}
	zp, ok := nu.TickOf(mb + mf[mlo])
	if !ok {
		return 0, false
	}
	if nu.uniform > 0 {
		// A uniform granule is one interval; subset means hull containment.
		nuIv := Interval{First: (zp-1)*nu.uniform + 1, Last: zp * nu.uniform}
		if mb+mf[mlo] < nuIv.First || mb+ml[mhi-1] > nuIv.Last {
			return 0, false
		}
		return zp, true
	}
	nb, nf, nl, nlo, nhi, ok := nu.granSpans(zp)
	if !ok {
		return 0, false
	}
	j := nlo
	for i := mlo; i < mhi; i++ {
		rest, end := mb+mf[i], mb+ml[i]
		for j < nhi && nb+nl[j] < rest {
			j++
		}
		for {
			if j >= nhi {
				return 0, false
			}
			f, l := nb+nf[j], nb+nl[j]
			if f > rest {
				return 0, false
			}
			if l >= end {
				break
			}
			rest = l + 1
			j++
		}
	}
	return zp, true
}

// coverInterval returns the granule of pt containing [lo, hi] as a subset
// of a single interval run, or false.
func (pt *PeriodicTable) coverInterval(lo, hi int64) (int64, bool) {
	zp, ok := pt.TickOf(lo)
	if !ok {
		return 0, false
	}
	base, first, last, slo, shi, ok := pt.granSpans(zp)
	if !ok {
		return 0, false
	}
	rest := lo
	for j := slo; j < shi; j++ {
		f, l := base+first[j], base+last[j]
		if l < rest {
			continue // run ends before the uncovered point: irrelevant
		}
		if f > rest {
			return 0, false // gap at rest that [lo,hi] needs covered
		}
		if l >= hi {
			return zp, true
		}
		rest = l + 1
	}
	return 0, false
}

// NewPeriodicTable compiles g into a periodic table. The build order is:
// uniform closed form, declared PeriodHint (verified), then generic
// detection over a bounded sample. Every periodic candidate is verified
// span-by-span against the source granularity before a table is returned,
// so a table can never disagree with its source. nil when no verified
// period fits the caps (holiday-aware b-day, trading sessions, DST-shifted
// zoned days and weeks) or g has no granule 1 at all; callers then use g
// directly.
func NewPeriodicTable(g Granularity) *PeriodicTable {
	if u, ok := g.(*Uniform); ok {
		return &PeriodicTable{name: u.Name(), uniform: u.Size()}
	}
	if ph, ok := g.(PeriodHint); ok {
		prefix, n := ph.PeriodHint()
		if n >= 1 && prefix >= 0 && prefix+n <= tableMaxGranules {
			if pt := buildTable(g, prefix, n); pt != nil {
				return pt
			}
		}
	}
	return detectTable(g)
}

// detectTable is the generic periodicity detector: sample granule shapes,
// try (prefix, n) candidates, verify the first that fits the whole sample.
func detectTable(g Granularity) *PeriodicTable {
	type shape struct {
		start int64      // absolute start second
		ivs   []Interval // intervals relative to start
	}
	var sample []shape
	for z := int64(1); z <= tableDetectGranules; z++ {
		ivs, ok := g.Intervals(z)
		if !ok || len(ivs) == 0 {
			break // finite type: not periodic
		}
		sh := shape{start: ivs[0].First}
		for _, iv := range ivs {
			sh.ivs = append(sh.ivs, Interval{First: iv.First - sh.start, Last: iv.Last - sh.start})
		}
		sample = append(sample, sh)
	}
	S := int64(len(sample))
	sameShape := func(a, b shape) bool {
		if len(a.ivs) != len(b.ivs) {
			return false
		}
		for i := range a.ivs {
			if a.ivs[i] != b.ivs[i] {
				return false
			}
		}
		return true
	}
	for prefix := int64(0); prefix <= tableDetectMaxPrefix && prefix < S; prefix++ {
		// Need at least three pattern repetitions in the sample so the
		// candidate is not an artifact of a short window.
		for n := int64(1); prefix+3*n+1 <= S; n++ {
			p := sample[prefix+n].start - sample[prefix].start
			if p <= 0 {
				continue
			}
			ok := true
			for i := prefix; i+n < S && ok; i++ {
				a, b := sample[i], sample[i+n]
				ok = b.start-a.start == p && sameShape(a, b)
			}
			if ok {
				if pt := buildTable(g, prefix, n); pt != nil {
					return pt
				}
			}
		}
	}
	return nil
}

// buildTable materializes and verifies a (prefix, n) periodic table from
// the source granularity; nil when the hypothesis does not hold.
func buildTable(g Granularity, prefix, n int64) *PeriodicTable {
	pt := &PeriodicTable{name: g.Name(), prefix: prefix, n: n}
	pt.preGranLo = append(pt.preGranLo, 0)
	for z := int64(1); z <= prefix; z++ {
		ivs, ok := g.Intervals(z)
		if !ok || len(ivs) == 0 {
			return nil
		}
		for _, iv := range ivs {
			pt.preFirst = append(pt.preFirst, iv.First)
			pt.preLast = append(pt.preLast, iv.Last)
		}
		pt.preGranLo = append(pt.preGranLo, int32(len(pt.preFirst)))
	}
	// Origin and period from the first granule of consecutive periods.
	o1, ok1 := g.Span(prefix + 1)
	o2, ok2 := g.Span(prefix + n + 1)
	if !ok1 || !ok2 {
		return nil
	}
	pt.origin = o1.First
	pt.period = o2.First - o1.First
	if pt.period <= 0 {
		return nil
	}
	pt.granLo = append(pt.granLo, 0)
	for j := int64(0); j < n; j++ {
		ivs, ok := g.Intervals(prefix + 1 + j)
		if !ok || len(ivs) == 0 {
			return nil
		}
		for _, iv := range ivs {
			f, l := iv.First-pt.origin, iv.Last-pt.origin
			if f < 0 || l >= pt.period {
				return nil
			}
			pt.first = append(pt.first, f)
			pt.last = append(pt.last, l)
			pt.spanGran = append(pt.spanGran, int32(j))
		}
		pt.granLo = append(pt.granLo, int32(len(pt.first)))
	}
	// Verify one further period against the source: every interval of
	// granules prefix+n+1 .. prefix+2n must be the pattern shifted by the
	// period. Combined with the builder's own construction this pins the
	// hypothesis; a wrong hint fails here instead of producing a bad table.
	var scratch []Interval
	for j := int64(0); j < n; j++ {
		z := prefix + n + 1 + j
		want, ok := g.Intervals(z)
		if !ok {
			return nil
		}
		scratch, _ = pt.AppendIntervals(scratch[:0], z)
		if len(want) != len(scratch) {
			return nil
		}
		for i := range want {
			if want[i] != scratch[i] {
				return nil
			}
		}
	}
	return pt
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm64(a, b int64) int64 { return a / gcd64(a, b) * b }
