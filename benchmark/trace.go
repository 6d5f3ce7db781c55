package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the id of the span that
// caused it (0 for a root); the spans of one replayed op share Op.
//
// A replayed span is a copy of a span measured on its own in the same op,
// placed inside a stage that re-executes the same work (core.exchange
// inside does what grid.cells_for, wkb.encode and wkb.decode do alone):
// it is how a stage measured from outside gets children, so that its self
// time is, as usual, its duration minus what its children cover.
type span struct {
	ID       int
	Parent   int
	Name     string
	Op       int
	Start    time.Duration // since the tracer was created
	End      time.Duration
	Replayed bool
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the "tracing off" side of trace.overhead_pct.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: time.Since(t.t0)})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	return s.dur()
}

// replay places copies of already-measured durations inside span parent,
// back to back from its start, clipped to its end.
func (t *tracer) replay(parent int, names []string, durs []time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.Start
	for i, name := range names {
		end := min(at+durs[i], p.End)
		t.spans = append(t.spans, span{
			ID: len(t.spans) + 1, Parent: parent, Name: name, Op: p.Op,
			Start: at, End: end, Replayed: true,
		})
		at = end
	}
}

// selfTimes returns every span's duration minus the part of it its child
// spans cover (the union of the children, clipped to the span).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		// Children are appended in start order within one goroutine's
		// sequence; merge defensively anyway.
		var covered time.Duration
		edge := s.Start
		for _, c := range sortedByStart(children[s.ID]) {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

func sortedByStart(ss []span) []span {
	out := append([]span(nil), ss...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as Chrome trace-event JSON (open it in
// chrome://tracing or ui.perfetto.dev). Each op is its own track.
func (t *tracer) writeTrace(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "layer", Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Op,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "op": s.Op, "replayed": s.Replayed,
				"self_us": float64(self[s.ID].Nanoseconds()) / 1e3,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
