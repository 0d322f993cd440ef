package mining

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/granularity"
	"repro/internal/tag"
)

// The paper's Section 6 names three easy extensions of the event-discovery
// problem; all three are implemented here:
//
//  1. the reference "type" may be a granularity anchor ("the beginning of a
//     week"), enabling questions like "what happens in most weeks?" —
//     GranuleReferences synthesizes the pseudo-events;
//  2. the reference may be a set of types — Problem.References;
//  3. variables may be constrained to carry the same or different event
//     types — Problem.SameType / Problem.DistinctType.

// GranulePseudoType returns the reserved event type used for synthesized
// granule-anchor events of the named granularity.
func GranulePseudoType(gran string) event.Type {
	return event.Type("granule:" + gran)
}

// GranuleReferences returns seq plus one pseudo-event at the start of every
// granule of the named granularity overlapping seq's span, together with
// the pseudo type to use as the problem's Reference. Assign the structure's
// root to it and the discovery answers "what happens in most granules?"
// (the paper's "beginning of a week" extension).
func GranuleReferences(sys *granularity.System, seq event.Sequence, gran string) (event.Sequence, event.Type, error) {
	g, ok := sys.Get(gran)
	if !ok {
		return nil, "", fmt.Errorf("mining: granularity %q not in system", gran)
	}
	if len(seq) == 0 {
		return nil, "", fmt.Errorf("mining: empty sequence")
	}
	typ := GranulePseudoType(gran)
	first, last := seq.Span()
	var anchors event.Sequence
	z, ok := g.TickOf(first)
	if !ok {
		// first lies in a gap; start at the first granule touching it.
		z = granularity.FirstTouching(g, first)
	}
	for ; ; z++ {
		iv, ok := g.Span(z)
		if !ok || iv.First > last {
			break
		}
		anchors = append(anchors, event.Event{Type: typ, Time: iv.First})
	}
	if len(anchors) == 0 {
		return nil, "", fmt.Errorf("mining: no %s granules overlap the sequence", gran)
	}
	return event.Merge(seq, anchors), typ, nil
}

// rootPool returns the admissible root types: References if non-empty,
// otherwise {Reference}.
func (p *Problem) rootPool() []event.Type {
	if len(p.References) > 0 {
		return append([]event.Type(nil), p.References...)
	}
	return []event.Type{p.Reference}
}

// typeConstraintsOK applies the paper's same-type / distinct-type variable
// constraints to a full assignment.
func (p *Problem) typeConstraintsOK(full map[core.Variable]event.Type) bool {
	for _, pair := range p.SameType {
		if full[pair[0]] != full[pair[1]] {
			return false
		}
	}
	for _, pair := range p.DistinctType {
		if full[pair[0]] == full[pair[1]] {
			return false
		}
	}
	return true
}

// validateTypeConstraints checks the constraint pairs reference known
// variables.
func (p *Problem) validateTypeConstraints() error {
	for _, pair := range append(append([][2]core.Variable{}, p.SameType...), p.DistinctType...) {
		for _, v := range pair {
			if !p.Structure.HasVariable(v) {
				return fmt.Errorf("mining: type constraint mentions unknown variable %s", v)
			}
		}
	}
	return nil
}

// Witness is one concrete occurrence supporting a discovery: the reference
// event and the events bound to each variable.
type Witness struct {
	Reference event.Event
	Binding   core.Binding
}

// Explain returns up to maxWitnesses concrete occurrences of a discovered
// complex event type in the sequence, one per matching reference occurrence
// in order: the evidence behind a Discovery's frequency.
func Explain(sys *granularity.System, p Problem, seq event.Sequence, d Discovery, maxWitnesses int) ([]Witness, error) {
	if maxWitnesses < 1 {
		return nil, fmt.Errorf("mining: maxWitnesses must be positive")
	}
	root, _, err := p.validate()
	if err != nil {
		return nil, err
	}
	rootType, ok := d.Assign[root]
	if !ok {
		return nil, fmt.Errorf("mining: discovery does not assign the root %s", root)
	}
	ct, err := core.NewComplexType(p.Structure, d.Assign)
	if err != nil {
		return nil, err
	}
	a, err := tag.Compile(ct)
	if err != nil {
		return nil, err
	}
	var out []Witness
	for i, e := range seq {
		if e.Type != rootType {
			continue
		}
		sub := seq[i:]
		w, ok, _ := a.FindOccurrence(sys, sub, tag.RunOptions{Anchored: true})
		if !ok {
			continue
		}
		b := core.Binding{}
		for name, idx := range w {
			b[core.Variable(name)] = sub[idx]
		}
		out = append(out, Witness{Reference: e, Binding: b})
		if len(out) == maxWitnesses {
			break
		}
	}
	return out, nil
}
