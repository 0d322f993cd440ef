package main

import (
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
)

// Span names. Client spans are recorded by the benchmark's client, handler
// spans by wrappers around the router's and the workers' Handler, and
// redrive spans around library calls the benchmark repeats after an op to
// time one layer on the op's own inputs.
const (
	spanOp      = "client.op"
	spanRequest = "client.request"
	spanRouter  = "cluster.router"
	spanWorker  = "server.handler"
)

// span is one timed interval of the traced run. Spans of one op share op;
// parent is the id of the enclosing span, or -1.
type span struct {
	id, parent int
	op         int
	name       string
	start, end time.Duration // since the tracer's origin
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. With one closed-loop
// client only one op is in flight, so the innermost open span of each level
// (client request, router, worker) is the parent of the next span below it.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu     sync.Mutex
	spans  []span
	op     int
	opSpan int    // the open op span, -1 when none
	open   [3]int // innermost open span per level, -1 when none
}

// Span levels: a span's parent is the innermost open span of a lower level.
const (
	levelClient = iota
	levelRouter
	levelWorker
)

func newTracer() *tracer {
	return &tracer{origin: time.Now(), opSpan: -1, open: [3]int{-1, -1, -1}}
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

// beginOp opens the span of op and returns its id.
func (t *tracer) beginOp(op int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = op
	t.opSpan = t.addLocked(name, -1, t.now())
	return t.opSpan
}

// currentOp is the open op span's id, -1 when none.
func (t *tracer) currentOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.opSpan
}

// begin opens a span at level under the innermost open span of a lower
// level (or under parent when no such span is open).
func (t *tracer) begin(name string, level, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	for l := level - 1; l >= 0; l-- {
		if t.open[l] >= 0 {
			parent = t.open[l]
			break
		}
	}
	id := t.addLocked(name, parent, t.now())
	t.open[level] = id
	return id
}

// child opens a span directly under parent, outside the level stack (the
// redrive spans after an op).
func (t *tracer) child(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.addLocked(name, parent, t.now())
}

func (t *tracer) addLocked(name string, parent int, start time.Duration) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, op: t.op, name: name, start: start, end: -1})
	return id
}

// end closes span id and clears it from the level stack.
func (t *tracer) end(id int) {
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = at
	for l := range t.open {
		if t.open[l] == id {
			t.open[l] = -1
		}
	}
	if t.opSpan == id {
		t.opSpan = -1
	}
}

// wrap records a span around every request h serves while tracing is on.
func (t *tracer) wrap(name string, level int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id := t.begin(name, level, -1)
		defer t.end(id)
		h.ServeHTTP(w, r)
	})
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover; overlapping children count once and children
// are clipped to the parent's interval.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, kids[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// parent's interval.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	curA, curB := time.Duration(-1), time.Duration(-1)
	for _, v := range ivs {
		if v.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// opSpans groups a traced run's spans by op: for each op, the summed
// duration and summed self time of its spans by name.
type opSpans struct {
	dur  map[string]time.Duration
	self map[string]time.Duration
}

func groupByOp(spans []span) map[int]*opSpans {
	self := selfTimes(spans)
	out := make(map[int]*opSpans)
	for _, s := range spans {
		g := out[s.op]
		if g == nil {
			g = &opSpans{dur: map[string]time.Duration{}, self: map[string]time.Duration{}}
			out[s.op] = g
		}
		g.dur[s.name] += s.dur()
		g.self[s.name] += self[s.id]
	}
	return out
}

// cut is a point-in-time copy of one or more engine counter sets, summed.
type cut struct {
	counts map[string]int64
	stages map[string]time.Duration
}

func takeCut(cs ...*engine.Counters) cut {
	c := cut{counts: map[string]int64{}, stages: map[string]time.Duration{}}
	for _, x := range cs {
		for k, v := range x.Snapshot() {
			c.counts[k] += v
		}
		for k, v := range x.Stages() {
			c.stages[k] += v
		}
	}
	return c
}

// sub returns c minus prev: the work done between the two cuts.
func (c cut) sub(prev cut) cut {
	d := cut{counts: map[string]int64{}, stages: map[string]time.Duration{}}
	for k, v := range c.counts {
		if dv := v - prev.counts[k]; dv != 0 {
			d.counts[k] = dv
		}
	}
	for k, v := range c.stages {
		if dv := v - prev.stages[k]; dv != 0 {
			d.stages[k] = dv
		}
	}
	return d
}

// countPrefix sums every counter whose name starts with prefix.
func (c cut) countPrefix(prefix string) int64 {
	var n int64
	for k, v := range c.counts {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			n += v
		}
	}
	return n
}

// stageTotal sums every stage timer.
func (c cut) stageTotal() time.Duration {
	var d time.Duration
	for _, v := range c.stages {
		d += v
	}
	return d
}

// means accumulates per-op samples of named layer metrics.
type means map[string]*meanAcc

type meanAcc struct {
	sum float64
	n   int
}

func (m means) add(name string, v float64) {
	a := m[name]
	if a == nil {
		a = &meanAcc{}
		m[name] = a
	}
	a.sum += v
	a.n++
}

// value is the mean of the samples, 0 when there are none.
func (m means) value(name string) float64 {
	if a := m[name]; a != nil && a.n > 0 {
		return a.sum / float64(a.n)
	}
	return 0
}
