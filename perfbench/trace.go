package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one traced call: name is "<module>.<call>", Parent the
// causing span (0 for a root), Job the job or batch it served.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	// Decomp marks a decomposition call: a separate call on the same
	// inputs as its parent, made to split the parent's time, not a
	// step of the blocking path.
	Decomp bool `json:"decomp,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func (s span) module() string {
	m, _, _ := strings.Cut(s.Name, ".")
	return m
}

// tracer keeps spans in memory; with on false it records nothing and
// costs one branch per call, which is the untraced replay.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name, job string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Job: job, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

// end closes the span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return s.dur()
}

func (t *tracer) decomp(id int) {
	if id != 0 {
		t.spans[id-1].Decomp = true
	}
}

// selfTimes returns each non-decomposition span's self time: its
// duration minus the part its non-decomposition children cover.
// Children of one parent never overlap (the replay is sequential), so
// the covered part is the sum of their durations clipped to the parent.
func (t *tracer) selfTimes() map[int]time.Duration {
	self := map[int]time.Duration{}
	for _, s := range t.spans {
		if !s.Decomp {
			self[s.ID] += s.dur()
		}
	}
	for _, s := range t.spans {
		if s.Decomp || s.Parent == 0 {
			continue
		}
		self[s.Parent] -= s.dur()
	}
	for id, d := range self {
		self[id] = max(d, 0)
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
