package tag

import (
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
)

// RejectReason explains why Runner.Feed refused an event. The zero value
// RejectNone means the last Feed consumed its event (or reported sticky
// acceptance).
type RejectReason int

const (
	// RejectNone: the last Feed was not rejected.
	RejectNone RejectReason = iota
	// RejectOutOfOrder: the event's timestamp precedes the previous one; it
	// was not consumed and the runner remains usable.
	RejectOutOfOrder
	// RejectInterrupted: the engine interrupted this Feed (budget, context
	// or fault) before the event was consumed; Err() carries the typed
	// error and the runner state is unchanged from the previous event
	// boundary (so a Snapshot taken now resumes by re-feeding this event).
	RejectInterrupted
	// RejectSealed: a previous Feed was interrupted and the runner refuses
	// all further events; Err() carries the original typed error.
	RejectSealed
)

// String renders the reason for diagnostics.
func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "none"
	case RejectOutOfOrder:
		return "out-of-order"
	case RejectInterrupted:
		return "interrupted"
	case RejectSealed:
		return "sealed"
	default:
		return "unknown"
	}
}

// Runner is an online TAG simulation: events are fed one at a time (in
// non-decreasing timestamp order) and acceptance is reported as soon as it
// happens — the monitoring mode the paper's introduction motivates
// (watching accesses, transactions or plant telemetry as they arrive)
// rather than batch scanning a stored sequence.
//
// A Runner holds the same deduplicated frontier as Accepts; feeding the
// events of a sequence one by one reports acceptance at exactly the same
// event. Runners are not safe for concurrent use.
type Runner struct {
	a   *TAG
	sys *granularity.System
	opt RunOptions
	// p/ps hold the compiled program and the runner's own flat frontier.
	p        *program
	ps       *progScratch
	steps    int
	accepted bool
	binding  map[string]int
	maxFront int
	prevTime int64
	ex       *engine.Exec
	err      error
	reject   RejectReason
	degraded bool
}

// NewRunner starts an online simulation.
func (a *TAG) NewRunner(sys *granularity.System, opt RunOptions) *Runner {
	r := &Runner{
		a:   a,
		sys: sys,
		opt: opt,
		ex:  opt.Engine.Start(),
		p:   a.program(),
	}
	r.ps = r.p.newScratch(sys)
	for _, s := range r.p.starts {
		if r.p.accept[s] {
			r.accepted = true
			r.binding = map[string]int{}
		}
	}
	r.ps.cur.seed(r.p, r.p.nClocks, len(r.p.vars))
	return r
}

// Accepted reports whether an accepting run has been reached.
func (r *Runner) Accepted() bool { return r.accepted }

// Binding returns the witness of the accepting run (variable name → index
// of the fed event, 0-based in feeding order), or nil before acceptance.
func (r *Runner) Binding() map[string]int { return r.binding }

// Steps returns the number of events fed so far.
func (r *Runner) Steps() int { return r.steps }

// MaxFrontier returns the peak deduplicated run count.
func (r *Runner) MaxFrontier() int { return r.maxFront }

// Err returns the opt.Engine interruption that stopped the simulation, or
// nil. Once set, further feeding is refused with ok=false; the error
// matches engine.ErrInterrupted and carries the partial stats.
func (r *Runner) Err() error { return r.err }

// LastReject explains the most recent Feed that returned ok=false:
// RejectOutOfOrder, RejectInterrupted or RejectSealed. A successful Feed
// resets it to RejectNone. Every rejection also bumps the
// "tag.events.rejected" counter on the runner's engine observer.
func (r *Runner) LastReject() RejectReason { return r.reject }

// Degraded reports whether the MaxFrontier safety valve has tripped: the
// run set overflowed and was emptied, so subsequent non-acceptance is NOT a
// verdict — a real occurrence may have been dropped with the frontier.
// Acceptance reports remain sound (an accepting run was really reached).
// Each overflow bumps the "tag.frontier.overflows" counter.
func (r *Runner) Degraded() bool { return r.degraded }

// Feed consumes one event and reports whether the automaton has accepted
// (sticky: once true, further feeding is a no-op). Events must arrive in
// non-decreasing timestamp order; out-of-order events are rejected with
// ok=false without being consumed. LastReject distinguishes the rejection
// causes (out-of-order, engine interruption, post-interruption refusal).
func (r *Runner) Feed(e event.Event) (accepted, ok bool) {
	if r.accepted {
		r.reject = RejectNone
		return true, true
	}
	if r.err != nil {
		r.reject = RejectSealed
		r.ex.Count("tag.events.rejected", 1)
		return false, false
	}
	if r.steps > 0 && e.Time < r.prevTime {
		r.reject = RejectOutOfOrder
		r.ex.Count("tag.events.rejected", 1)
		return false, false
	}
	s := r.ps
	if err := r.ex.Step(1 + int64(s.cur.n)); err != nil {
		r.err = r.ex.Seal(err)
		r.reject = RejectInterrupted
		r.ex.Count("tag.events.rejected", 1)
		return false, false
	}
	r.reject = RejectNone
	r.ex.Count("tag.events", 1)
	r.ex.Count("tag.runs.alive", int64(s.cur.n))
	idx := r.steps
	r.steps++
	r.prevTime = e.Time
	accepted, killed, deduped := r.p.step(s, e, idx, len(r.p.vars), &r.opt)
	if killed > 0 {
		r.ex.Count("tag.runs.killed", killed)
	}
	if deduped > 0 {
		r.ex.Count("tag.runs.deduped", deduped)
	}
	if accepted {
		r.accepted = true
		r.binding = r.p.bindMap(s.bestBind)
		return true, true
	}
	if s.cur.n > r.maxFront {
		r.maxFront = s.cur.n
	}
	if r.opt.MaxFrontier > 0 && s.cur.n > r.opt.MaxFrontier {
		s.cur.reset()
		r.degraded = true
		r.ex.Count("tag.frontier.overflows", 1)
	}
	return false, true
}
