package tag

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
)

// Transition is one edge of a TAG: from state From to state To on input
// Symbol (or on any symbol when Any is set), resetting the clocks in Reset,
// enabled when Guard holds under the current clock valuation.
type Transition struct {
	From, To int
	Symbol   event.Type
	Any      bool
	Reset    []Clock
	Guard    Formula
	// Binds names the event variable this transition consumes an event
	// for; empty on skip transitions. Set by the compiler so witnesses can
	// be extracted from accepting runs.
	Binds string
}

// TAG is a timed finite automaton with granularities: the 6-tuple
// (Σ, S, S0, C, T, F) of the paper's Section 4.
type TAG struct {
	names  []string // state names, index = state id
	starts []int
	accept map[int]bool
	clocks []Clock
	trans  [][]Transition // outgoing, indexed by From
	// clockIndex maps a clock to its slot in run valuations.
	clockIndex map[Clock]int
	// prog caches the compiled flat-array form (see program.go); it is
	// invalidated by shape changes and rebuilt lazily.
	prog atomic.Pointer[program]
}

// NewTAG builds an empty automaton; use AddState/AddTransition.
func NewTAG() *TAG {
	return &TAG{accept: make(map[int]bool), clockIndex: make(map[Clock]int)}
}

// AddState adds a state with a diagnostic name and returns its id.
func (a *TAG) AddState(name string) int {
	a.names = append(a.names, name)
	a.trans = append(a.trans, nil)
	return len(a.names) - 1
}

// MarkStart marks a state as a start state.
func (a *TAG) MarkStart(s int) { a.starts = append(a.starts, s) }

// MarkAccept marks a state as accepting.
func (a *TAG) MarkAccept(s int) { a.accept[s] = true }

// AddClock registers a clock (idempotent).
func (a *TAG) AddClock(c Clock) {
	if _, ok := a.clockIndex[c]; ok {
		return
	}
	a.clockIndex[c] = len(a.clocks)
	a.clocks = append(a.clocks, c)
}

// AddTransition appends a transition; its clocks must have been registered.
func (a *TAG) AddTransition(t Transition) {
	for _, c := range t.Reset {
		if _, ok := a.clockIndex[c]; !ok {
			panic(fmt.Sprintf("tag: unregistered clock %s in reset", c))
		}
	}
	for _, c := range t.Guard.Clocks(nil) {
		if _, ok := a.clockIndex[c]; !ok {
			panic(fmt.Sprintf("tag: unregistered clock %s in guard", c))
		}
	}
	a.trans[t.From] = append(a.trans[t.From], t)
}

// NumStates returns |S|.
func (a *TAG) NumStates() int { return len(a.names) }

// NumTransitions returns |T|.
func (a *TAG) NumTransitions() int {
	n := 0
	for _, ts := range a.trans {
		n += len(ts)
	}
	return n
}

// Clocks returns the clock set.
func (a *TAG) Clocks() []Clock { return append([]Clock(nil), a.clocks...) }

// StateName returns the diagnostic name of a state.
func (a *TAG) StateName(s int) string { return a.names[s] }

// String renders the automaton, one transition per line.
func (a *TAG) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "states=%d starts=%v clocks=%v\n", len(a.names), a.starts, a.clocks)
	for from, ts := range a.trans {
		for _, t := range ts {
			sym := string(t.Symbol)
			if t.Any {
				sym = "ANY"
			}
			acc := ""
			if a.accept[t.To] {
				acc = " (accept)"
			}
			fmt.Fprintf(&b, "%s --%s[%s]{reset %v}--> %s%s\n",
				a.names[from], sym, t.Guard, t.Reset, a.names[t.To], acc)
		}
	}
	return b.String()
}

// RunOptions tunes the NDFA simulation.
type RunOptions struct {
	// Anchored disables the skip self-loop on start states, forcing the
	// first event of the input to take a real transition. The mining layer
	// uses this to bind the structure's root to a specific reference
	// occurrence.
	Anchored bool
	// Strict applies the paper's literal run semantics: a run dies as soon
	// as ANY clock update is undefined (the event timestamp or the
	// previous one falls in a granularity gap), even if no guard mentions
	// the clock. The default (lazy) semantics instead marks the clock
	// undefined until its next reset; guards over undefined clocks cannot
	// fire. Lazy accepts a superset of strict and is what mining over
	// real sequences (weekends between trading days!) needs.
	Strict bool
	// MaxFrontier caps the deduplicated run-set size as a safety valve;
	// 0 means unlimited.
	MaxFrontier int
	// Engine bounds and observes the simulation. The zero value is
	// unbounded and silent. Each consumed event spends one budget unit plus
	// one per live run processed; counters report "tag.events" and the
	// cumulative "tag.runs.alive" / "tag.runs.deduped" / "tag.runs.killed".
	// Accepts and FindOccurrence treat an interruption like the MaxFrontier
	// safety valve — they stop and report non-acceptance with partial stats;
	// use AcceptsExec / FindOccurrenceExec to receive the typed error.
	Engine engine.Config
}

// RunStats reports simulation effort for the Theorem-4 experiments.
type RunStats struct {
	// Steps is the number of events consumed.
	Steps int
	// MaxFrontier is the peak number of distinct (state, valuation) runs.
	MaxFrontier int
	// AcceptedAt is the index (into the input) of the event on which an
	// accepting state was first reached, or -1.
	AcceptedAt int
}

// Accepts reports whether the automaton accepts the sequence: whether some
// run reaches an accepting state at some prefix. (Compiled TAGs keep skip
// self-loops on accepting states, so prefix acceptance and end-of-input
// acceptance coincide; stopping at the first acceptance is an optimization,
// not a semantic change.)
func (a *TAG) Accepts(sys *granularity.System, seq event.Sequence, opt RunOptions) (bool, RunStats) {
	ex := opt.Engine.Start()
	_, ok, stats, err := a.run(ex, sys, seq, opt, false)
	ex.Seal(err)
	if err != nil {
		return false, stats
	}
	return ok, stats
}

// AcceptsExec is Accepts under a caller-supplied execution carrier
// (opt.Engine is ignored). Unlike Accepts, an interruption surfaces as the
// carrier's typed error alongside the partial stats.
func (a *TAG) AcceptsExec(ex *engine.Exec, sys *granularity.System, seq event.Sequence, opt RunOptions) (bool, RunStats, error) {
	_, ok, stats, err := a.run(ex, sys, seq, opt, false)
	return ok, stats, ex.Seal(err)
}

// FindOccurrence is Accepts returning a witness: the index in seq of the
// event bound to each variable of the accepting run (for compiled TAGs,
// the variables of the source structure). Of the runs that accept on the
// first accepting event, the witness is the one whose bound indexes, read
// in sorted-variable order, are lexicographically smallest. ok is false
// when the automaton rejects. An opt.Engine interruption reports ok=false
// with partial stats.
func (a *TAG) FindOccurrence(sys *granularity.System, seq event.Sequence, opt RunOptions) (map[string]int, bool, RunStats) {
	ex := opt.Engine.Start()
	w, ok, stats, err := a.run(ex, sys, seq, opt, true)
	ex.Seal(err)
	if err != nil {
		return nil, false, stats
	}
	return w, ok, stats
}

// FindOccurrenceExec is FindOccurrence under a caller-supplied execution
// carrier (opt.Engine is ignored); interruptions surface as the carrier's
// typed error.
func (a *TAG) FindOccurrenceExec(ex *engine.Exec, sys *granularity.System, seq event.Sequence, opt RunOptions) (map[string]int, bool, RunStats, error) {
	w, ok, stats, err := a.run(ex, sys, seq, opt, true)
	return w, ok, stats, ex.Seal(err)
}
