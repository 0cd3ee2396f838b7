package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of that layer.  IDs start at 1; Parent 0 marks a root.
// Spans of one request share Request.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	Request int64  `json:"request"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends.  Safe for concurrent
// use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID for end and for children.
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Request: req, Start: now})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// add records a span whose interval was measured by the caller.
func (r *recorder) add(name string, parent int32, req int64, start, end time.Time) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Request: req,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch))})
	return id
}

// timed runs fn inside a span and returns the span's duration.
func (r *recorder) timed(name string, parent int32, req int64, fn func()) time.Duration {
	id := r.begin(name, parent, req)
	fn()
	return r.end(id)
}

// snapshot returns a copy of the spans with their self times filled in.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := slices.Clone(r.spans)
	r.mu.Unlock()
	setSelfTimes(out)
	return out
}

// setSelfTimes sets each span's Self to its duration minus the part of its
// interval that its children cover.  Children that overlap each other are
// counted once, and a child reaching outside its parent counts only inside.
func setSelfTimes(spans []span) {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range spans {
		s := &spans[i]
		s.Self = s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	iv = slices.Clone(iv)
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, x := range iv {
		start, end := max(x[0], cur), min(x[1], hi)
		if end > start {
			total += end - start
			cur = end
		}
	}
	return total
}

// writeTrace writes the spans and the run's identity to path as JSON.
func writeTrace(path string, meta any, spans []span) error {
	data, err := json.Marshal(struct {
		Run   any    `json:"run"`
		Spans []span `json:"spans"`
	}{meta, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
