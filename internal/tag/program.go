package tag

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/granularity"
)

// This file is the TAG execution core: the automaton is lowered once into
// flat index-addressed arrays (integer state ids, CSR transition tables,
// fixed clock slots, interned symbols and variable ids) and the NDFA
// frontier is simulated over reusable flat buffers with an open-addressing
// dedup table — no per-step maps, closures or key strings. The batch run
// (run) and the streaming Runner advance the frontier through the same
// per-event step.
//
// Each clock's granularity (and its conversion table) is resolved once per
// run, so mutating the granularity system mid-run is not observed.

const (
	symAny  int32 = -1 // transition matches any symbol
	symNone int32 = -2 // event symbol outside the automaton's alphabet
	noVar   int32 = -1 // transition binds no variable
	unbound int32 = -1 // variable not bound in this run
)

type guardKind int8

const (
	gTrue guardKind = iota
	gConj
	gGeneric
)

// guardAtom is one conjunct of a compiled guard: clock slot `slot` compared
// against k (le: reading <= k, else k <= reading).
type guardAtom struct {
	slot int32
	le   bool
	k    int64
}

// guardProg is a compiled guard. The Theorem-3 compiler only emits
// conjunctions of LE/GE atoms, which evaluate slot-directly (gConj);
// anything else (Or, Not, user formulas) falls back to the Formula with a
// flat-array reader (gGeneric) so semantics never depend on the lowering.
type guardProg struct {
	kind  guardKind
	atoms []guardAtom
	f     Formula
}

// program is the compiled form of a TAG.
type program struct {
	nStates int
	nTrans  int
	nClocks int
	nAccept int

	starts []int32
	accept []bool
	clocks []Clock
	// clockIdx is shared with the source TAG (read-only during runs).
	clockIdx map[Clock]int

	transLo []int32 // CSR over states, len nStates+1
	tTo     []int32
	tSym    []int32 // interned symbol, symAny for Any transitions
	tBinds  []int32 // variable id, noVar when none
	tSelf   []bool  // To == From
	tGuard  []guardProg
	resetLo []int32 // CSR over transitions, len nTrans+1
	resets  []int32 // clock slots

	progLo  []int32 // CSR over states: state-changing transition ids
	progIDs []int32

	syms  map[event.Type]int32
	vars  []string // sorted variable names; index = variable id
	varID map[string]int32

	pool sync.Pool // *progScratch, for batch runs
}

// program returns the cached compiled form, rebuilding it when the
// automaton's shape has changed since the last build (AddState,
// AddTransition, MarkStart, MarkAccept and AddClock all change a counted
// dimension; in-place mutation is not part of the TAG API). Relabel
// constructs a fresh TAG value, so relabeled automata compile their own
// program.
func (a *TAG) program() *program {
	if p := a.prog.Load(); p != nil && p.fresh(a) {
		return p
	}
	p := buildProgram(a)
	a.prog.Store(p)
	return p
}

func (p *program) fresh(a *TAG) bool {
	return p.nStates == len(a.names) &&
		p.nTrans == a.NumTransitions() &&
		p.nClocks == len(a.clocks) &&
		p.nAccept == len(a.accept) &&
		len(p.starts) == len(a.starts)
}

func buildProgram(a *TAG) *program {
	p := &program{
		nStates:  len(a.names),
		nTrans:   a.NumTransitions(),
		nClocks:  len(a.clocks),
		nAccept:  len(a.accept),
		clocks:   append([]Clock(nil), a.clocks...),
		clockIdx: a.clockIndex,
		accept:   make([]bool, len(a.names)),
		syms:     make(map[event.Type]int32),
		varID:    make(map[string]int32),
	}
	for s, ok := range a.accept {
		if ok {
			p.accept[s] = true
		}
	}
	for _, s := range a.starts {
		p.starts = append(p.starts, int32(s))
	}
	varSet := make(map[string]bool)
	for _, ts := range a.trans {
		for _, t := range ts {
			if !t.Any {
				if _, ok := p.syms[t.Symbol]; !ok {
					p.syms[t.Symbol] = int32(len(p.syms))
				}
			}
			if t.Binds != "" {
				varSet[t.Binds] = true
			}
		}
	}
	for v := range varSet {
		p.vars = append(p.vars, v)
	}
	sort.Strings(p.vars)
	for i, v := range p.vars {
		p.varID[v] = int32(i)
	}
	p.transLo = make([]int32, p.nStates+1)
	p.resetLo = append(p.resetLo, 0)
	for s := 0; s < p.nStates; s++ {
		p.transLo[s] = int32(len(p.tTo))
		for _, t := range a.trans[s] {
			p.tTo = append(p.tTo, int32(t.To))
			sym := symAny
			if !t.Any {
				sym = p.syms[t.Symbol]
			}
			p.tSym = append(p.tSym, sym)
			b := noVar
			if t.Binds != "" {
				b = p.varID[t.Binds]
			}
			p.tBinds = append(p.tBinds, b)
			p.tSelf = append(p.tSelf, t.To == t.From)
			p.tGuard = append(p.tGuard, compileGuard(t.Guard, a.clockIndex))
			for _, c := range t.Reset {
				p.resets = append(p.resets, int32(a.clockIndex[c]))
			}
			p.resetLo = append(p.resetLo, int32(len(p.resets)))
		}
	}
	p.transLo[p.nStates] = int32(len(p.tTo))
	p.progLo = make([]int32, p.nStates+1)
	for s := 0; s < p.nStates; s++ {
		p.progLo[s] = int32(len(p.progIDs))
		for ti := p.transLo[s]; ti < p.transLo[s+1]; ti++ {
			if !p.tSelf[ti] {
				p.progIDs = append(p.progIDs, ti)
			}
		}
	}
	p.progLo[p.nStates] = int32(len(p.progIDs))
	return p
}

// compileGuard lowers a Formula: conjunctions of LE/GE/True atoms become
// slot-addressed atom lists; everything else keeps the Formula.
func compileGuard(f Formula, idx map[Clock]int) guardProg {
	atoms, ok := flattenConj(f, idx, nil)
	if !ok {
		return guardProg{kind: gGeneric, f: f}
	}
	if len(atoms) == 0 {
		return guardProg{kind: gTrue}
	}
	return guardProg{kind: gConj, atoms: atoms}
}

func flattenConj(f Formula, idx map[Clock]int, dst []guardAtom) ([]guardAtom, bool) {
	switch g := f.(type) {
	case True:
		return dst, true
	case LE:
		return append(dst, guardAtom{slot: int32(idx[g.Clock]), le: true, k: g.K}), true
	case GE:
		return append(dst, guardAtom{slot: int32(idx[g.Clock]), le: false, k: g.K}), true
	case And:
		var ok bool
		for _, sub := range g {
			if dst, ok = flattenConj(sub, idx, dst); !ok {
				return nil, false
			}
		}
		return dst, true
	}
	return nil, false
}

// runsBuf is a flat frontier of NDFA runs: row r occupies states[r],
// vals/invalid [r*C, (r+1)*C) and (when witnesses are tracked) bind
// [r*W, (r+1)*W). Slice lengths always equal n*stride so appends land at
// row n.
//
// A run's valuation is stored as the granule index at each clock's last
// reset, so a reading is cover(now) − vals[slot]: this telescopes to the
// paper's accumulated value when every intermediate cover is defined, and
// recovers after an unrelated gap event under the lazy semantics. invalid
// marks clocks reset at an uncovered timestamp. bind holds, per variable
// id, the index of the event the run bound to it (unbound when none); it
// is carried along but is not part of the dedup key, because runs that
// differ only in their witness are interchangeable for acceptance.
type runsBuf struct {
	n       int
	states  []int32
	vals    []int64
	invalid []bool
	bind    []int32
}

func (b *runsBuf) reset() {
	b.n = 0
	b.states = b.states[:0]
	b.vals = b.vals[:0]
	b.invalid = b.invalid[:0]
	b.bind = b.bind[:0]
}

// pushFrom appends a copy of src row r and returns the new row index. The
// caller sets the state and applies resets/bindings afterwards.
func (b *runsBuf) pushFrom(src *runsBuf, r, C, W int) int {
	row := b.n
	b.states = append(b.states, src.states[r])
	b.vals = append(b.vals, src.vals[r*C:(r+1)*C]...)
	b.invalid = append(b.invalid, src.invalid[r*C:(r+1)*C]...)
	if W > 0 {
		b.bind = append(b.bind, src.bind[r*W:(r+1)*W]...)
	}
	b.n++
	return row
}

func (b *runsBuf) pop(C, W int) {
	b.n--
	b.states = b.states[:b.n]
	b.vals = b.vals[:b.n*C]
	b.invalid = b.invalid[:b.n*C]
	if W > 0 {
		b.bind = b.bind[:b.n*W]
	}
}

func (b *runsBuf) bindRow(row, W int) []int32 {
	if W == 0 {
		return nil
	}
	return b.bind[row*W : (row+1)*W]
}

// copyRow overwrites row dst with row src (used when a dedup winner
// replaces the incumbent; the dedup keys are equal, the masked values and
// bindings need not be).
func (b *runsBuf) copyRow(dst, src, C, W int) {
	b.states[dst] = b.states[src]
	copy(b.vals[dst*C:(dst+1)*C], b.vals[src*C:(src+1)*C])
	copy(b.invalid[dst*C:(dst+1)*C], b.invalid[src*C:(src+1)*C])
	if W > 0 {
		copy(b.bind[dst*W:(dst+1)*W], b.bind[src*W:(src+1)*W])
	}
}

// sameKey reports whether rows i and j have equal dedup keys: same state,
// same invalid mask, same values on valid slots. Values under an invalid
// mask are excluded.
func (b *runsBuf) sameKey(i, j, C int) bool {
	if b.states[i] != b.states[j] {
		return false
	}
	bi, bj := i*C, j*C
	for c := 0; c < C; c++ {
		if b.invalid[bi+c] != b.invalid[bj+c] {
			return false
		}
		if !b.invalid[bi+c] && b.vals[bi+c] != b.vals[bj+c] {
			return false
		}
	}
	return true
}

// seed loads the deduplicated start frontier (zero valuations, nothing
// bound). Accepting start states are handled by the callers before seeding.
func (b *runsBuf) seed(p *program, C, W int) {
	b.reset()
	for _, st := range p.starts {
		if p.accept[st] {
			continue
		}
		dup := false
		for i := 0; i < b.n; i++ {
			if b.states[i] == st {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		b.states = append(b.states, st)
		for c := 0; c < C; c++ {
			b.vals = append(b.vals, 0)
			b.invalid = append(b.invalid, false)
		}
		for v := 0; v < W; v++ {
			b.bind = append(b.bind, unbound)
		}
		b.n++
	}
}

// flatReader adapts the flat arrays to the Formula read interface for
// generic guards; base selects the run row. The two method values (read,
// doomedRead) are created once per scratch, not per evaluation.
type flatReader struct {
	idx      map[Clock]int
	vals     []int64
	invalid  []bool
	curCover []int64
	curOK    []bool
	base     int
}

func (f *flatReader) read(c Clock) (int64, bool) {
	ci := f.idx[c]
	if f.invalid[f.base+ci] || !f.curOK[ci] {
		return 0, false
	}
	return f.curCover[ci] - f.vals[f.base+ci], true
}

// doomedRead is the pruning semantics: invalid clocks are permanently
// undefined, an uncovered current timestamp reads as a very small value so
// nothing is considered dead because of it.
func (f *flatReader) doomedRead(c Clock) (int64, bool) {
	ci := f.idx[c]
	if f.invalid[f.base+ci] {
		return 0, false
	}
	if !f.curOK[ci] {
		return -(1 << 60), true
	}
	return f.curCover[ci] - f.vals[f.base+ci], true
}

// progScratch holds every buffer one simulation needs; batch runs pool it,
// a Runner owns one for its lifetime.
type progScratch struct {
	// cur is the frontier and nxt the successors one step builds; they
	// point into bufs and trade places after every event.
	cur, nxt *runsBuf
	bufs     [2]runsBuf
	curCover []int64
	curOK    []bool
	prevOK   []bool
	ticks    []func(int64) (int64, bool)
	table    []int32 // open-addressing dedup table, -1 empty
	bestBind []int32
	gr       flatReader
	readFn   func(Clock) (int64, bool)
	doomedFn func(Clock) (int64, bool)
}

// newScratch builds a zeroed scratch with tick functions resolved from sys
// (conversion-table lookups when the system has a table for the clock's
// granularity, the direct implementation otherwise; nil for granularities
// the system does not know — those clocks read as permanently uncovered).
func (p *program) newScratch(sys *granularity.System) *progScratch {
	s := &progScratch{}
	p.initScratch(s, sys)
	return s
}

func (p *program) getScratch(sys *granularity.System) *progScratch {
	s, _ := p.pool.Get().(*progScratch)
	if s == nil {
		s = &progScratch{}
	}
	p.initScratch(s, sys)
	return s
}

func (p *program) initScratch(s *progScratch, sys *granularity.System) {
	C := p.nClocks
	if cap(s.curCover) < C {
		s.curCover = make([]int64, C)
		s.curOK = make([]bool, C)
		s.prevOK = make([]bool, C)
		s.ticks = make([]func(int64) (int64, bool), C)
	}
	s.curCover = s.curCover[:C]
	s.curOK = s.curOK[:C]
	s.prevOK = s.prevOK[:C]
	s.ticks = s.ticks[:C]
	for i := range s.curCover {
		// Zeroed so masked valuations (initiation under a registry miss)
		// serialize deterministically.
		s.curCover[i] = 0
		s.curOK[i] = false
		s.prevOK[i] = false
	}
	for i, c := range p.clocks {
		if fn, ok := sys.Ticker(c.Gran); ok {
			s.ticks[i] = fn
		} else {
			s.ticks[i] = nil
		}
	}
	if s.table == nil {
		s.table = make([]int32, 64)
	}
	s.cur, s.nxt = &s.bufs[0], &s.bufs[1]
	s.cur.reset()
	s.nxt.reset()
	s.bestBind = s.bestBind[:0]
	s.gr = flatReader{idx: p.clockIdx, curCover: s.curCover, curOK: s.curOK}
	s.readFn = s.gr.read
	s.doomedFn = s.gr.doomedRead
}

func (s *progScratch) clearTable() {
	for i := range s.table {
		s.table[i] = -1
	}
}

// rowHash hashes a row's dedup key (FNV-1a over state, invalid mask and
// valid values). Collisions are resolved by sameKey.
func (p *program) rowHash(b *runsBuf, row int) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ uint64(uint32(b.states[row]))) * prime
	base := row * p.nClocks
	for ci := 0; ci < p.nClocks; ci++ {
		if b.invalid[base+ci] {
			h = (h ^ 0x9e3779b97f4a7c15) * prime
		} else {
			h = (h ^ uint64(b.vals[base+ci])) * prime
		}
	}
	return h
}

// dedupInsert inserts the candidate (the last pushed row of b) into the
// table, or resolves the collision: count the dup, keep the incumbent when
// its binding is <= the candidate's (cmpBind), replace it otherwise. The
// candidate row is popped in both dup outcomes.
func (s *progScratch) dedupInsert(p *program, b *runsBuf, row, C, W int, deduped *int64) {
	if (b.n+1)*2 >= len(s.table) {
		s.growTable(p, b, row)
	}
	mask := uint64(len(s.table) - 1)
	slot := p.rowHash(b, row) & mask
	for {
		e := s.table[slot]
		if e < 0 {
			s.table[slot] = int32(row)
			return
		}
		if b.sameKey(int(e), row, C) {
			*deduped++
			if cmpBind(b.bindRow(int(e), W), b.bindRow(row, W)) > 0 {
				b.copyRow(int(e), row, C, W)
			}
			b.pop(C, W)
			return
		}
		slot = (slot + 1) & mask
	}
}

// growTable doubles the table until the load factor is comfortable and
// reinserts the kept rows (all rows below the candidate).
func (s *progScratch) growTable(p *program, b *runsBuf, candidate int) {
	size := len(s.table)
	for (b.n+1)*2 >= size {
		size *= 2
	}
	s.table = make([]int32, size)
	for i := range s.table {
		s.table[i] = -1
	}
	mask := uint64(size - 1)
	for i := 0; i < candidate; i++ {
		slot := p.rowHash(b, i) & mask
		for s.table[slot] >= 0 {
			slot = (slot + 1) & mask
		}
		s.table[slot] = int32(i)
	}
}

// cmpBind orders two flat bindings of one program by their bound event
// indices in sorted-variable order (an unbound slot, -1, sorts first). The
// frontier keeps the smaller binding of two runs that meet in one run key,
// and acceptance reports the smallest, so a witness never depends on the
// order in which runs were generated. Runs that meet share their future,
// so the minimum survives to acceptance: the reported witness is the
// lexicographically smallest occurrence completing at the accepting event.
func cmpBind(a, b []int32) int { return slices.Compare(a, b) }

// bindMap materializes a flat binding as a variable → event index map:
// nil when nothing is bound.
func (p *program) bindMap(row []int32) map[string]int {
	var m map[string]int
	for i, v := range row {
		if v < 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int, len(row))
		}
		m[p.vars[i]] = int(v)
	}
	return m
}

func (p *program) guardEval(g *guardProg, s *progScratch, b *runsBuf, base int) bool {
	switch g.kind {
	case gTrue:
		return true
	case gConj:
		for i := range g.atoms {
			at := &g.atoms[i]
			ci := int(at.slot)
			if b.invalid[base+ci] || !s.curOK[ci] {
				return false
			}
			v := s.curCover[ci] - b.vals[base+ci]
			if at.le {
				if v > at.k {
					return false
				}
			} else if v < at.k {
				return false
			}
		}
		return true
	default:
		s.gr.vals, s.gr.invalid, s.gr.base = b.vals, b.invalid, base
		return g.f.Eval(s.readFn)
	}
}

func (p *program) guardDead(g *guardProg, s *progScratch, b *runsBuf, base int) bool {
	switch g.kind {
	case gTrue:
		return false
	case gConj:
		for i := range g.atoms {
			at := &g.atoms[i]
			ci := int(at.slot)
			if b.invalid[base+ci] {
				return true
			}
			if at.le && s.curOK[ci] && s.curCover[ci]-b.vals[base+ci] > at.k {
				return true
			}
		}
		return false
	default:
		s.gr.vals, s.gr.invalid, s.gr.base = b.vals, b.invalid, base
		return g.f.Dead(s.doomedFn)
	}
}

// doomed reports whether the run at base can never reach an accepting
// state: every state-changing transition's guard out of state is
// permanently dead. Clock values only grow while the run waits in its
// state, and an invalid clock (reset at an uncovered timestamp) stays
// invalid, so LE atoms past their bound and atoms over invalid clocks
// never recover. A transiently uncovered current timestamp is NOT
// permanent (see flatReader.doomedRead).
func (p *program) doomed(s *progScratch, b *runsBuf, state int32, base int) bool {
	lo, hi := p.progLo[state], p.progLo[state+1]
	if lo == hi {
		return true
	}
	for i := lo; i < hi; i++ {
		if !p.guardDead(&p.tGuard[p.progIDs[i]], s, b, base) {
			return false
		}
	}
	return true
}

// run is the batch simulation behind Accepts and FindOccurrence.
func (a *TAG) run(ex *engine.Exec, sys *granularity.System, seq event.Sequence, opt RunOptions, witness bool) (map[string]int, bool, RunStats, error) {
	stats := RunStats{AcceptedAt: -1}
	p := a.program()
	for _, st := range p.starts {
		if p.accept[st] {
			stats.AcceptedAt = 0
			return map[string]int{}, true, stats, nil
		}
	}
	s := p.getScratch(sys)
	defer p.pool.Put(s)
	W := 0
	if witness {
		W = len(p.vars)
	}
	s.cur.seed(p, p.nClocks, W)

	var events, alive, deduped, killed int64
	flush := func() {
		ex.Count("tag.events", events)
		ex.Count("tag.runs.alive", alive)
		ex.Count("tag.runs.deduped", deduped)
		ex.Count("tag.runs.killed", killed)
	}
	for idx, e := range seq {
		if err := ex.Step(1 + int64(s.cur.n)); err != nil {
			flush()
			return nil, false, stats, err
		}
		events++
		alive += int64(s.cur.n)
		stats.Steps++
		accepted, k, d := p.step(s, e, idx, W, &opt)
		killed += k
		deduped += d
		if accepted {
			stats.AcceptedAt = idx
			if s.nxt.n > stats.MaxFrontier {
				stats.MaxFrontier = s.nxt.n
			}
			flush()
			return p.bindMap(s.bestBind), true, stats, nil
		}
		if s.cur.n > stats.MaxFrontier {
			stats.MaxFrontier = s.cur.n
		}
		if opt.MaxFrontier > 0 && s.cur.n > opt.MaxFrontier {
			// Safety valve: refuse to blow up. Report non-acceptance with
			// the stats gathered so far.
			break
		}
		if s.cur.n == 0 {
			break
		}
	}
	flush()
	return nil, false, stats, nil
}

// step advances the frontier s.cur over e, the idx-th event (0-based) of
// the input; W is the number of binding slots tracked per run (0 when the
// caller needs no witness). When some run reaches an accepting state on e
// it returns accepted, with the smallest accepting binding (cmpBind) in
// s.bestBind and the successors generated so far in s.nxt; otherwise s.cur
// holds the successor frontier. killed counts runs pruned as doomed,
// deduped runs merged into an equal-key run.
func (p *program) step(s *progScratch, e event.Event, idx, W int, opt *RunOptions) (accepted bool, killed, deduped int64) {
	C := p.nClocks
	copy(s.prevOK, s.curOK)
	for ci := 0; ci < C; ci++ {
		if s.ticks[ci] == nil {
			s.curOK[ci] = false
			continue
		}
		s.curCover[ci], s.curOK[ci] = s.ticks[ci](e.Time)
	}
	cur, nxt := s.cur, s.nxt
	if idx == 0 {
		// Initiation: all clocks read 0 at the first event, i.e. they
		// behave as if reset there.
		for r := 0; r < cur.n; r++ {
			base := r * C
			copy(cur.vals[base:base+C], s.curCover)
			for ci := 0; ci < C; ci++ {
				cur.invalid[base+ci] = !s.curOK[ci]
			}
		}
	} else if opt.Strict {
		// Paper-literal semantics: the update value must be defined for
		// every clock at every step, or the run cannot continue — and the
		// deltas are shared, so all runs die together.
		for ci := 0; ci < C; ci++ {
			if !s.curOK[ci] || !s.prevOK[ci] {
				cur.reset()
				break
			}
		}
	}
	esym, known := p.syms[e.Type]
	if !known {
		esym = symNone
	}
	nxt.reset()
	s.clearTable()
	noSkip := opt.Anchored && idx == 0 // the anchor event must take a real transition
	for r := 0; r < cur.n; r++ {
		st := cur.states[r]
		curBase := r * C
		for ti := p.transLo[st]; ti < p.transLo[st+1]; ti++ {
			if sym := p.tSym[ti]; sym != symAny && sym != esym {
				continue
			}
			if noSkip && p.tSym[ti] == symAny && p.tSelf[ti] {
				continue
			}
			if !p.guardEval(&p.tGuard[ti], s, cur, curBase) {
				continue
			}
			row := nxt.pushFrom(cur, r, C, W)
			rowBase := row * C
			to := p.tTo[ti]
			nxt.states[row] = to
			if W > 0 && p.tBinds[ti] >= 0 {
				nxt.bind[row*W+int(p.tBinds[ti])] = int32(idx)
			}
			for ri := p.resetLo[ti]; ri < p.resetLo[ti+1]; ri++ {
				ci := int(p.resets[ri])
				nxt.vals[rowBase+ci] = s.curCover[ci]
				nxt.invalid[rowBase+ci] = !s.curOK[ci]
			}
			if p.accept[to] {
				nb := nxt.bindRow(row, W)
				if !accepted || cmpBind(nb, s.bestBind) < 0 {
					s.bestBind = append(s.bestBind[:0], nb...)
				}
				accepted = true
				nxt.pop(C, W)
				continue
			}
			if p.doomed(s, nxt, to, rowBase) {
				killed++
				nxt.pop(C, W)
				continue
			}
			s.dedupInsert(p, nxt, row, C, W, &deduped)
		}
	}
	if !accepted {
		s.cur, s.nxt = s.nxt, s.cur
	}
	return accepted, killed, deduped
}

// keyOfRow renders a row's dedup key as text (cold path: snapshots sort
// their runs by it).
func (p *program) keyOfRow(b *runsBuf, row int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", b.states[row])
	base := row * p.nClocks
	for ci := 0; ci < p.nClocks; ci++ {
		if b.invalid[base+ci] {
			sb.WriteString("|x")
		} else {
			fmt.Fprintf(&sb, "|%d", b.vals[base+ci])
		}
	}
	return sb.String()
}

// snapshotFrontier materializes the frontier as checkpoint runs sorted by
// dedup key — identical bytes for identical runner states.
func (r *Runner) snapshotFrontier() []CheckpointRun {
	p, s := r.p, r.ps
	C, W := p.nClocks, len(p.vars)
	type keyed struct {
		key string
		row int
	}
	rows := make([]keyed, s.cur.n)
	for i := 0; i < s.cur.n; i++ {
		rows[i] = keyed{key: p.keyOfRow(s.cur, i), row: i}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].key < rows[j].key })
	runs := make([]CheckpointRun, 0, len(rows))
	for _, kr := range rows {
		base := kr.row * C
		runs = append(runs, CheckpointRun{
			State:   int(s.cur.states[kr.row]),
			Vals:    append([]int64(nil), s.cur.vals[base:base+C]...),
			Invalid: append([]bool(nil), s.cur.invalid[base:base+C]...),
			Binding: p.bindMap(s.cur.bindRow(kr.row, W)),
		})
	}
	return runs
}

// loadFrontier replaces the runner's frontier with checkpoint runs.
func (r *Runner) loadFrontier(runs []CheckpointRun) error {
	p, s := r.p, r.ps
	W := len(p.vars)
	s.cur.reset()
	for _, cr := range runs {
		row := s.cur.n
		s.cur.states = append(s.cur.states, int32(cr.State))
		s.cur.vals = append(s.cur.vals, cr.Vals...)
		s.cur.invalid = append(s.cur.invalid, cr.Invalid...)
		for v := 0; v < W; v++ {
			s.cur.bind = append(s.cur.bind, unbound)
		}
		for name, idx := range cr.Binding {
			vid, ok := p.varID[name]
			if !ok {
				return fmt.Errorf("tag: checkpoint binds unknown variable %q", name)
			}
			s.cur.bind[row*W+int(vid)] = int32(idx)
		}
		s.cur.n++
	}
	return nil
}
