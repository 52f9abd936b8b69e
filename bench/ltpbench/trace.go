package main

import (
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer: recorded by
// bench code around its own calls, never inside the program.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Req groups the spans of one request or cell.
	Req string `json:"req,omitempty"`
	// Start and End are nanoseconds since the tracer's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until the process writes them out. A nil
// tracer records nothing, which is how untraced passes run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span and returns its id (for children) and the function
// that closes it.
func (t *tracer) start(name string, parent int64, req string) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	begin := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: begin})
	t.mu.Unlock()
	return id, func() {
		end := time.Since(t.origin).Nanoseconds()
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// record adds a finished span with explicit bounds (a sweep cell runs
// from its job's Submit to its arrival on Job.Cells).
func (t *tracer) record(name string, parent int64, req string, begin, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Req: req,
		Start: begin.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	t.mu.Unlock()
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
