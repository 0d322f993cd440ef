// Package engine is the unified execution carrier every long-running solver
// layer threads through: context-aware cancellation, work budgets, and
// observability (counters and stage timers).
//
// The paper's complexity results make the need concrete: consistency is
// NP-hard (Theorem 1), and even the polynomial algorithms carry high-degree
// bounds like O(n⁵|M|²w) (Theorem 2), so every solver in this repository —
// exact backtracking, propagation fixpoints, TAG subset-construction
// simulation, the mining pipeline — can legitimately run for a very long
// time on adversarial input. An Exec makes such runs cancellable (via a
// context deadline), bounded (via a step budget) and measurable (via a
// pluggable Observer), while the zero-value Config preserves the historical
// behaviour: unbounded and silent, with near-zero overhead.
//
// Layering convention: each layer's Options struct embeds a Config; the
// layer's public entry point calls Config.Start once and threads the
// resulting *Exec (which may be nil — every method is nil-safe) through its
// own loops and into the layers beneath it, so one budget and one deadline
// govern the whole solve. Exceeding either returns a typed *Interrupted
// error (matching ErrInterrupted under errors.Is) carrying the partial
// stats gathered so far, so callers degrade gracefully instead of hanging.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInterrupted is the sentinel every *Interrupted matches under
// errors.Is: the solve was cut short by a budget or a cancelled context.
var ErrInterrupted = errors.New("engine: interrupted")

// Interrupted is the typed error returned when a budget is exhausted or the
// context is cancelled. It carries the partial stats gathered up to the
// interruption so callers can report how far the solve got.
type Interrupted struct {
	// Reason is "budget", "context" or "fault" (injected by a FaultPlan).
	Reason string
	// Cause is the context's error for Reason "context", nil for "budget".
	Cause error
	// Steps is the work performed (budget units) before the interruption.
	Steps int64
	// Stats is a snapshot of the observer's counters at the interruption
	// (nil when no snapshotting observer was configured).
	Stats map[string]int64
}

// Error implements error.
func (e *Interrupted) Error() string {
	switch e.Reason {
	case "context":
		return fmt.Sprintf("engine: interrupted after %d steps: %v", e.Steps, e.Cause)
	case "fault":
		return fmt.Sprintf("engine: interrupted after %d steps: injected fault", e.Steps)
	default:
		return fmt.Sprintf("engine: interrupted after %d steps: budget exhausted", e.Steps)
	}
}

// Is matches ErrInterrupted, so errors.Is(err, engine.ErrInterrupted) holds
// for every interruption regardless of reason.
func (e *Interrupted) Is(target error) bool { return target == ErrInterrupted }

// Unwrap exposes the context's error (context.Canceled or
// context.DeadlineExceeded) when the interruption came from the context.
func (e *Interrupted) Unwrap() error { return e.Cause }

// Observer receives execution telemetry. Implementations must be safe for
// concurrent use: the mining pipeline fans work out to goroutines sharing
// one Exec.
type Observer interface {
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Stage records one timed stage (stage timers accumulate per name).
	Stage(name string, elapsed time.Duration)
}

// Snapshotter is the optional Observer extension the engine uses to attach
// partial stats to Interrupted errors. *Counters implements it.
type Snapshotter interface {
	Snapshot() map[string]int64
}

// DefaultCheckEvery is the default stride (in budget units) between context
// polls; Step only consults the context clock every stride to keep hot
// loops cheap.
const DefaultCheckEvery = 1024

// Config configures execution control for one solver call. The zero value
// means unbounded, uncancellable and silent — exactly the historical
// behaviour of every Options struct that embeds it.
type Config struct {
	// Ctx cancels the solve when done (deadline or explicit cancellation).
	// nil means no cancellation.
	Ctx context.Context
	// Budget bounds the total work (in the layer's step units: search
	// nodes, propagation cells, simulation runs...). 0 means unlimited.
	Budget int64
	// Observer receives counters and stage timings. nil means silent.
	Observer Observer
	// CheckEvery overrides the context poll stride (budget units between
	// polls); 0 means DefaultCheckEvery.
	CheckEvery int64
	// Fault deterministically injects an interruption at planned work
	// units (Reason "fault") — the chaos-testing harness. nil means none.
	Fault *FaultPlan
}

// Enabled reports whether the config asks for any control or telemetry.
func (c Config) Enabled() bool {
	return c.Ctx != nil || c.Budget > 0 || c.Observer != nil || c.Fault.enabled()
}

// Start builds the Exec carrier for one solve. It returns nil for a zero
// config; every Exec method is nil-safe, so layers thread the result
// unconditionally.
func (c Config) Start() *Exec {
	if !c.Enabled() {
		return nil
	}
	ex := &Exec{
		ctx:        c.Ctx,
		budget:     c.Budget,
		obs:        c.Observer,
		checkEvery: c.CheckEvery,
	}
	if c.Fault.enabled() {
		ex.fault = c.Fault
	}
	if ex.checkEvery <= 0 {
		ex.checkEvery = DefaultCheckEvery
	}
	return ex
}

// Exec is the execution carrier threaded through a solve: it meters work
// against the budget, polls the context with a bounded stride, and forwards
// telemetry to the observer. A nil *Exec is valid and means "no control, no
// telemetry". Exec is safe for concurrent use by multiple goroutines
// sharing one solve (the mining worker pool).
type Exec struct {
	ctx        context.Context
	budget     int64
	checkEvery int64
	obs        Observer
	fault      *FaultPlan

	used      atomic.Int64
	sincePoll atomic.Int64
	state     atomic.Pointer[Interrupted] // sticky once interrupted
	sealMu    sync.Mutex                  // serializes Seal's refresh of the sticky state
}

// Step consumes n budget units and reports whether the solve must stop:
// a non-nil error is the sticky *Interrupted. Layers call it inside their
// hot loops with batched n, so the per-iteration cost is an atomic add.
func (ex *Exec) Step(n int64) error {
	if ex == nil {
		return nil
	}
	if ip := ex.state.Load(); ip != nil {
		return ip
	}
	used := ex.used.Add(n)
	if ex.budget > 0 && used > ex.budget {
		return ex.interrupt("budget", nil)
	}
	if ex.fault != nil && ex.fault.trips(used-n, used) {
		return ex.interrupt("fault", nil)
	}
	if ex.ctx != nil && ex.sincePoll.Add(n) >= ex.checkEvery {
		ex.sincePoll.Store(0)
		if err := ex.ctx.Err(); err != nil {
			return ex.interrupt("context", err)
		}
	}
	return nil
}

// Err reports the sticky interruption without consuming budget, polling the
// context first. Layers use it at loop boundaries where no work unit is
// being spent.
func (ex *Exec) Err() error {
	if ex == nil {
		return nil
	}
	if ip := ex.state.Load(); ip != nil {
		return ip
	}
	if ex.ctx != nil {
		if err := ex.ctx.Err(); err != nil {
			return ex.interrupt("context", err)
		}
	}
	return nil
}

// interrupt records the first interruption (later ones keep the original).
func (ex *Exec) interrupt(reason string, cause error) *Interrupted {
	ip := &Interrupted{Reason: reason, Cause: cause, Steps: ex.used.Load()}
	if !ex.state.CompareAndSwap(nil, ip) {
		return ex.state.Load()
	}
	return ip
}

// Used returns the budget units consumed so far.
func (ex *Exec) Used() int64 {
	if ex == nil {
		return 0
	}
	return ex.used.Load()
}

// Count forwards a counter increment to the observer.
func (ex *Exec) Count(name string, delta int64) {
	if ex == nil || ex.obs == nil || delta == 0 {
		return
	}
	ex.obs.Count(name, delta)
}

// Stage starts a stage timer and returns the function that stops it and
// reports the elapsed time to the observer. Use as
//
//	defer ex.Stage("mining.step5_scan")()
func (ex *Exec) Stage(name string) func() {
	if ex == nil || ex.obs == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() { ex.obs.Stage(name, time.Since(t0)) }
}

// Seal finalizes an error on the way out of a layer: when err is (or wraps)
// this Exec's *Interrupted, its Steps and Stats are refreshed so the error
// carries the final partial stats. Any other error — and nil — is returned
// unchanged. Seal is idempotent; every layer may seal on return.
func (ex *Exec) Seal(err error) error {
	if ex == nil || err == nil {
		return err
	}
	var ip *Interrupted
	if errors.As(err, &ip) {
		ex.sealMu.Lock()
		ip.Steps = ex.used.Load()
		if snap, ok := ex.obs.(Snapshotter); ok {
			ip.Stats = snap.Snapshot()
		}
		ex.sealMu.Unlock()
	}
	return err
}
