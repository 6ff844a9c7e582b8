package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one op share the op id.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// N is a count the layer reports at the boundary: simulator events for
	// sim.run, schedule ops for mpilib.build, repetitions for bench.measure.
	N int64 `json:"n,omitempty"`
	// Bytes is the heap allocated inside the span, where it is measured.
	Bytes int64 `json:"bytes,omitempty"`
	// Calls counts the cost-model calls made inside a sim.run span.
	Calls int64 `json:"calls,omitempty"`
	// InnerNs is time inside the span that is not the layer's own and is
	// too finely split for child spans: the allocation probes around
	// mpilib.build. Self time subtracts it like a child.
	InnerNs int64 `json:"inner_ns,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginOp starts the root span of a new op.
func (t *tracer) beginOp(name string) int {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(name)
}

// begin opens a span under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: t.now()})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// discard absorbs the span fields an untraced run sets.
var discard span

// end closes span i, which must be the innermost open span, and returns it
// for the caller to fill in its counts. The pointer is valid until the next
// begin.
func (t *tracer) end(i int) *span {
	if t == nil {
		return &discard
	}
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
	return &t.spans[i]
}

// abort closes every open span, after an op failed part-way.
func (t *tracer) abort() {
	for t != nil && len(t.open) > 0 {
		t.end(t.open[len(t.open)-1])
	}
}

// selfTimes returns, per span, its duration minus the part of it that its
// child spans cover (their union, clipped to the span) and minus its
// accounted inner time.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		p := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = p.dur() - covered - p.InnerNs
	}
	return self
}

// layerTotal aggregates the spans of one name.
type layerTotal struct {
	count           int
	dur, self       int64
	n, bytes, calls int64
	innerNs         int64
}

// totals aggregates spans by name.
func totals(spans []span) map[string]*layerTotal {
	self := selfTimes(spans)
	out := map[string]*layerTotal{}
	for i, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotal{}
			out[s.Name] = lt
		}
		lt.count++
		lt.dur += s.dur()
		lt.self += self[i]
		lt.n += s.N
		lt.bytes += s.Bytes
		lt.calls += s.Calls
		lt.innerNs += s.InnerNs
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
