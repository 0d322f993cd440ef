package tag

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/granularity"
)

// CheckpointVersion is the wire version of the Runner checkpoint format.
// Decoding rejects other versions.
const CheckpointVersion = 1

// ExecSchemaVersion identifies the execution-state schema this build writes
// and reads: the meaning of the frontier encoding. It bumps only when the
// encoded execution state itself changes meaning. The witness tie-break is
// not part of the schema: a restored frontier run keeps the binding it was
// saved with, and every binding it carries is a valid partial occurrence,
// so a checkpoint written under an earlier tie-break still resumes to the
// same verdict with a valid witness. A change of conversion-table layout is
// not a schema change either: the fingerprint digests each clock's table
// signature (or "none"), so it refuses only checkpoints over the clocks
// whose layout moved.
const ExecSchemaVersion = 1

// SchemaMismatchError reports a checkpoint whose execution-state schema
// differs from this build's. It is returned by RestoreRunner before any
// fingerprint comparison: a schema mismatch means the bytes cannot be
// interpreted, which is a different (and more fundamental) failure than
// matching state taken under a different automaton.
type SchemaMismatchError struct {
	// Got is the schema version recorded in the checkpoint.
	Got int
	// Want is ExecSchemaVersion.
	Want int
}

func (e *SchemaMismatchError) Error() string {
	return fmt.Sprintf("tag: checkpoint uses execution schema %d, this build reads %d", e.Got, e.Want)
}

// Checkpoint is a serializable snapshot of a streaming Runner at an event
// boundary: the deduplicated frontier with clock valuations and witness
// bindings, the event count, the order watermark, and the semantic run
// options. Restoring it (RestoreRunner) and feeding the remaining events
// yields exactly the run an uninterrupted Runner would have produced —
// same acceptance event, same binding.
//
// The Fingerprint ties the snapshot to the automaton and granularity
// system it was taken under; RestoreRunner refuses snapshots whose
// fingerprint does not match, so stale or foreign state can never be
// silently resumed against the wrong TAG.
type Checkpoint struct {
	Version int `json:"version"`
	// ExecSchema is the execution-state schema version the snapshot was
	// written under (ExecSchemaVersion); restores refuse other schemas with
	// a *SchemaMismatchError. Snapshots predating the field read as 0 and
	// are refused the same way.
	ExecSchema  int    `json:"exec_schema"`
	Fingerprint string `json:"fingerprint"`
	// Anchored / Strict record the semantic RunOptions the snapshot was
	// taken under; restoring under different semantics is refused.
	Anchored bool `json:"anchored,omitempty"`
	Strict   bool `json:"strict,omitempty"`
	// Steps is the number of events consumed; a resuming feeder skips this
	// many events of its input.
	Steps int `json:"steps"`
	// PrevTime is the order watermark (timestamp of the last consumed
	// event); meaningful when Steps > 0.
	PrevTime int64 `json:"prev_time"`
	// CurOK records, per clock, whether the last consumed event's timestamp
	// was covered by the clock's granularity — the strict-semantics lookback
	// state. len(CurOK) == number of automaton clocks.
	CurOK []bool `json:"cur_ok"`
	// Accepted/Binding capture a sticky acceptance (Binding: variable name →
	// 0-based index of the bound event in feeding order).
	Accepted bool           `json:"accepted,omitempty"`
	Binding  map[string]int `json:"binding,omitempty"`
	// MaxFrontier is the peak deduplicated run count so far.
	MaxFrontier int `json:"max_frontier"`
	// Degraded marks a tripped MaxFrontier valve (post-overflow
	// non-acceptance is not a verdict; the flag survives the restore).
	Degraded bool `json:"degraded,omitempty"`
	// Frontier is the deduplicated run set, sorted by dedup key so equal
	// runner states encode to identical bytes.
	Frontier []CheckpointRun `json:"frontier"`
}

// CheckpointRun is one frontier run of a Checkpoint.
type CheckpointRun struct {
	State   int            `json:"state"`
	Vals    []int64        `json:"vals"`
	Invalid []bool         `json:"invalid"`
	Binding map[string]int `json:"binding,omitempty"`
}

// Fingerprint digests the automaton and the granularities it reads so a
// checkpoint can be bound to them: state names, start/accept sets, clocks,
// every transition (symbol, guard, resets, binder), and — for each clock's
// granularity — its name plus a probe of its first granules' extents from
// the system (so "same name, different definition" is caught too).
func (a *TAG) Fingerprint(sys *granularity.System) string {
	h := sha256.New()
	fmt.Fprintf(h, "schema=%d\n", ExecSchemaVersion)
	fmt.Fprintf(h, "states=%d\n", len(a.names))
	for _, n := range a.names {
		fmt.Fprintf(h, "n:%s\n", n)
	}
	fmt.Fprintf(h, "starts:%v\n", a.starts)
	accepts := make([]int, 0, len(a.accept))
	for s := range a.accept {
		accepts = append(accepts, s)
	}
	sort.Ints(accepts)
	fmt.Fprintf(h, "accepts:%v\n", accepts)
	for _, c := range a.clocks {
		fmt.Fprintf(h, "clock:%s\n", c)
		g, ok := sys.Get(c.Gran)
		if !ok {
			fmt.Fprintf(h, "gran:%s:missing\n", c.Gran)
			continue
		}
		fmt.Fprintf(h, "gran:%s", c.Gran)
		for z := int64(1); z <= 4; z++ {
			iv, ok := g.Span(z)
			fmt.Fprintf(h, ":%v,%d,%d", ok, iv.First, iv.Last)
		}
		fmt.Fprintln(h)
		// Digest the conversion-table layout too: the compiled core reads
		// clocks through these tables, so "same granules, different table
		// shape" must change the fingerprint with them.
		if pt := sys.Table(c.Gran); pt != nil {
			fmt.Fprintf(h, "table:%s:%s\n", c.Gran, pt.Signature())
		} else {
			fmt.Fprintf(h, "table:%s:none\n", c.Gran)
		}
	}
	for from, ts := range a.trans {
		for _, t := range ts {
			fmt.Fprintf(h, "t:%d>%d:%s:%v:%s:%v:%s\n",
				from, t.To, t.Symbol, t.Any, t.Guard, t.Reset, t.Binds)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Snapshot captures the runner's state at the current event boundary. It
// is valid after any Feed outcome: an interrupted Feed (RejectInterrupted)
// leaves the runner exactly at the boundary before the refused event, so
// the snapshot resumes by re-feeding that event.
func (r *Runner) Snapshot() (Checkpoint, error) {
	cp := Checkpoint{
		Version:     CheckpointVersion,
		ExecSchema:  ExecSchemaVersion,
		Fingerprint: r.a.Fingerprint(r.sys),
		Anchored:    r.opt.Anchored,
		Strict:      r.opt.Strict,
		Steps:       r.steps,
		PrevTime:    r.prevTime,
		CurOK:       append([]bool(nil), r.ps.curOK...),
		Accepted:    r.accepted,
		Binding:     copyBinding(r.binding),
		MaxFrontier: r.maxFront,
		Degraded:    r.degraded,
	}
	cp.Frontier = r.snapshotFrontier()
	return cp, nil
}

// RestoreRunner rebuilds a streaming Runner from a checkpoint taken against
// the same automaton and granularity system. The semantic options
// (Anchored, Strict) must match the snapshot's; MaxFrontier and Engine are
// taken from opt, so a resumed run gets a fresh budget and deadline.
// Feeding the events the snapshot had not yet consumed continues the run
// exactly where it left off.
func RestoreRunner(a *TAG, sys *granularity.System, opt RunOptions, cp *Checkpoint) (*Runner, error) {
	if cp == nil {
		return nil, fmt.Errorf("tag: nil checkpoint")
	}
	if cp.ExecSchema != ExecSchemaVersion {
		return nil, &SchemaMismatchError{Got: cp.ExecSchema, Want: ExecSchemaVersion}
	}
	if err := cp.validate(a); err != nil {
		return nil, err
	}
	if got := a.Fingerprint(sys); got != cp.Fingerprint {
		return nil, fmt.Errorf("tag: checkpoint fingerprint %.12s... does not match automaton/system %.12s...", cp.Fingerprint, got)
	}
	if opt.Anchored != cp.Anchored || opt.Strict != cp.Strict {
		return nil, fmt.Errorf("tag: checkpoint taken under anchored=%v strict=%v, restore requested anchored=%v strict=%v",
			cp.Anchored, cp.Strict, opt.Anchored, opt.Strict)
	}
	r := a.NewRunner(sys, opt)
	r.steps = cp.Steps
	r.prevTime = cp.PrevTime
	copy(r.ps.curOK, cp.CurOK)
	r.accepted = cp.Accepted
	r.binding = copyBinding(cp.Binding)
	r.maxFront = cp.MaxFrontier
	r.degraded = cp.Degraded
	// NewRunner seeded the initial frontier; replace it with the snapshot's
	// (at Steps == 0 they coincide).
	if err := r.loadFrontier(cp.Frontier); err != nil {
		return nil, err
	}
	return r, nil
}

// validate checks structural well-formedness against the automaton.
func (cp *Checkpoint) validate(a *TAG) error {
	if cp == nil {
		return fmt.Errorf("tag: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return fmt.Errorf("tag: checkpoint version %d, this build reads %d", cp.Version, CheckpointVersion)
	}
	if cp.Steps < 0 {
		return fmt.Errorf("tag: checkpoint has negative step count %d", cp.Steps)
	}
	nc := len(a.clocks)
	if len(cp.CurOK) != nc {
		return fmt.Errorf("tag: checkpoint has %d clock flags, automaton has %d clocks", len(cp.CurOK), nc)
	}
	binders := make(map[string]bool)
	for _, ts := range a.trans {
		for _, t := range ts {
			if t.Binds != "" {
				binders[t.Binds] = true
			}
		}
	}
	for i, cr := range cp.Frontier {
		if cr.State < 0 || cr.State >= len(a.names) {
			return fmt.Errorf("tag: checkpoint run %d references state %d of %d", i, cr.State, len(a.names))
		}
		if len(cr.Vals) != nc || len(cr.Invalid) != nc {
			return fmt.Errorf("tag: checkpoint run %d has %d/%d clock entries, automaton has %d clocks",
				i, len(cr.Vals), len(cr.Invalid), nc)
		}
		for v, idx := range cr.Binding {
			if !binders[v] {
				return fmt.Errorf("tag: checkpoint run %d binds %q, which no transition of the automaton binds", i, v)
			}
			if idx < 0 || idx >= cp.Steps {
				return fmt.Errorf("tag: checkpoint run %d binds %s to event %d of %d consumed", i, v, idx, cp.Steps)
			}
		}
	}
	for v, idx := range cp.Binding {
		if !binders[v] {
			return fmt.Errorf("tag: checkpoint binds %q, which no transition of the automaton binds", v)
		}
		if idx < 0 || idx >= cp.Steps {
			return fmt.Errorf("tag: checkpoint binds %s to event %d of %d consumed", v, idx, cp.Steps)
		}
	}
	return nil
}

// Encode writes the checkpoint as JSON.
func (cp *Checkpoint) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cp)
}

// DecodeCheckpoint reads an Encode-formatted checkpoint. Arbitrary input
// never panics; unknown fields and other versions are rejected.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var cp Checkpoint
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cp); err != nil {
		return nil, fmt.Errorf("tag: decoding checkpoint: %w", err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("tag: checkpoint version %d, this build reads %d", cp.Version, CheckpointVersion)
	}
	// An explicit empty binding ({}) decodes as a non-nil map, but omitempty
	// drops it on the next encode, which would re-decode as nil — normalize
	// to nil here so decode∘encode is the identity on accepted checkpoints.
	if len(cp.Binding) == 0 {
		cp.Binding = nil
	}
	for i := range cp.Frontier {
		if len(cp.Frontier[i].Binding) == 0 {
			cp.Frontier[i].Binding = nil
		}
	}
	return &cp, nil
}

func copyBinding(b map[string]int) map[string]int {
	if b == nil {
		return nil
	}
	out := make(map[string]int, len(b))
	for k, v := range b {
		out[k] = v
	}
	return out
}
