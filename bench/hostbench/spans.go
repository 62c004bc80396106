package main

import "time"

// span is one timed step of a traced run. Parent 0 is the root. Self is the
// span's duration minus the time its child spans cover.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Self   int64              `json:"self_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// spanRecorder keeps a traced run's spans in memory until the run ends.
// Traced passes run on one goroutine, so it needs no locking.
type spanRecorder struct {
	origin time.Time
	spans  []span
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{origin: time.Now()}
}

// start opens a span and returns its id.
func (r *spanRecorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: time.Since(r.origin).Nanoseconds()})
	return len(r.spans)
}

// end closes a span and returns its duration.
func (r *spanRecorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.End = time.Since(r.origin).Nanoseconds()
	return time.Duration(s.End - s.Start)
}

func (r *spanRecorder) setAttrs(id int, attrs map[string]float64) {
	r.spans[id-1].Attrs = attrs
}

// finish fills in every span's self time and returns the spans.
func (r *spanRecorder) finish() []span {
	for i := range r.spans {
		r.spans[i].Self = r.spans[i].End - r.spans[i].Start
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
	return r.spans
}
