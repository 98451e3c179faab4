package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Parent is the ID of the
// span that caused it (0 for a root); Ref names the request or epoch
// it belongs to. Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Ref    string `json:"ref"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid no-op, so untraced runs pay one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a span and returns its ID for close and for children.
func (t *tracer) open(name, ref string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Ref: ref, Start: start.Sub(t.t0).Nanoseconds()})
	return id
}

// close ends the span id.
func (t *tracer) close(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name, ref string, parent int, start, end time.Time) int {
	id := t.open(name, ref, parent, start)
	t.close(id, end)
	return id
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in nanoseconds, keyed by
// span ID: its duration minus the part of its interval that its child
// spans cover (overlapping children are counted once, and any part of
// a child outside its parent is ignored).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self time in nanoseconds per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// writeSpans writes the spans of a traced run as one JSON document.
func writeSpans(path string, meta map[string]any, spans []span) error {
	b, err := json.Marshal(map[string]any{"meta": meta, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
