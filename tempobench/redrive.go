package main

import (
	"time"

	"repro/internal/propagate"
)

// redriveReps repeats each TickOf pass, a few tens of nanoseconds a call,
// so one timer read covers many calls.
const redriveReps = 16

// timed runs f inside a redrive span under parent and returns its duration.
func timed(r *runCtx, name string, parent int, f func()) time.Duration {
	id := r.tr.child(name, parent)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.tr.end(id)
	return d
}

// tickPair is one (granularity, instant) an op resolves.
type tickPair struct {
	gran string
	t    int64
}

// redriveTicks times System.TickOf on an op's pairs, split into granularities
// served by a full periodic table and the aperiodic zone/session families.
func redriveTicks(r *runCtx, parent int, pairs []tickPair) {
	var table, zoo []tickPair
	for _, p := range pairs {
		if tb := r.sys.Table(p.gran); tb != nil && !tb.Bounded() {
			table = append(table, p)
		} else {
			zoo = append(zoo, p)
		}
	}
	for _, part := range []struct {
		name  string
		pairs []tickPair
	}{{"granularity.tick_ns.table", table}, {"granularity.tick_ns.zoo", zoo}} {
		if len(part.pairs) == 0 {
			continue
		}
		d := timed(r, "redrive."+part.name, parent, func() {
			for k := 0; k < redriveReps; k++ {
				for _, p := range part.pairs {
					r.sys.TickOf(p.gran, p.t)
				}
			}
		})
		r.layer.add(part.name, float64(d.Nanoseconds())/float64(redriveReps*len(part.pairs)))
	}
}

// redriveGrans times System.CoverOf and propagate.NewConverter over every
// ordered pair of an op's granularities, covering the granule of nu that
// holds t.
func redriveGrans(r *runCtx, parent int, grans []string, t int64) {
	type pair struct {
		nu, mu string
		z      int64
	}
	var pairs []pair
	for _, nu := range grans {
		z, ok := r.sys.TickOf(nu, t)
		if !ok {
			continue
		}
		for _, mu := range grans {
			if mu != nu {
				pairs = append(pairs, pair{nu, mu, z})
			}
		}
	}
	if len(pairs) == 0 {
		return
	}
	// Covers between direct-arithmetic families take up to hundreds of
	// microseconds each, so one pass is enough to time them.
	d := timed(r, "redrive.granularity.cover", parent, func() {
		for _, p := range pairs {
			r.sys.CoverOf(p.nu, p.mu, p.z)
		}
	})
	r.layer.add("granularity.cover_ns", float64(d.Nanoseconds())/float64(len(pairs)))
	d = timed(r, "redrive.propagate.convert", parent, func() {
		for _, p := range pairs {
			propagate.NewConverter(r.sys, p.mu, p.nu)
		}
	})
	r.layer.add("propagate.convert_ns", float64(d.Nanoseconds())/float64(len(pairs)))
}
