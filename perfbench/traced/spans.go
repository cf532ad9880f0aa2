package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer. Parent 0 marks the root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// SelfNS is the span's duration minus the time its children cover.
	SelfNS int64 `json:"self_ns"`
}

// recorder keeps spans in memory until write. It is used from one
// goroutine: spans of concurrent work are added after it is joined.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span under parent and returns its id.
func (r *recorder) start(name string, parent int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, StartNS: int64(time.Since(r.epoch))})
	return len(r.spans)
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id-1]
	s.EndNS = int64(time.Since(r.epoch))
	return time.Duration(s.EndNS - s.StartNS)
}

// add records a span whose interval was measured elsewhere.
func (r *recorder) add(name string, parent int, start, end time.Time) {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		StartNS: int64(start.Sub(r.epoch)), EndNS: int64(end.Sub(r.epoch))})
}

// write fills in self times and writes every span to path as JSON.
// Children of one parent may overlap (concurrent workers); their union
// is not computed, so a parent's self time is a lower bound then.
func (r *recorder) write(path string) error {
	for i := range r.spans {
		r.spans[i].SelfNS = r.spans[i].EndNS - r.spans[i].StartNS
	}
	for _, s := range r.spans {
		if s.Parent > 0 {
			r.spans[s.Parent-1].SelfNS -= s.EndNS - s.StartNS
		}
	}
	raw, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
