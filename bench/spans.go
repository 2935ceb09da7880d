package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced op. Spans of one op share Op;
// Parent is the id of the span that caused this one (0 for the op span
// itself). A layer's self time is its span's duration minus the part
// its child spans cover.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanLog keeps the spans of a traced run in memory; they are written
// out once, when the run ends, so recording costs no I/O inside an op.
// The zero value is ready; a nil log records nothing.
type spanLog struct {
	origin time.Time
	spans  []span
}

// add records a span and returns its id.
func (l *spanLog) add(op, parent int, name string, start time.Time, dur time.Duration) int {
	if l == nil {
		return 0
	}
	if l.origin.IsZero() {
		l.origin = start
	}
	id := len(l.spans) + 1
	s := start.Sub(l.origin).Nanoseconds()
	l.spans = append(l.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartNS: s, EndNS: s + dur.Nanoseconds()})
	return id
}

// close sets the duration of a span that was added with none because it
// had to exist before its children.
func (l *spanLog) close(id int, dur time.Duration) {
	if l == nil || id == 0 {
		return
	}
	l.spans[id-1].EndNS = l.spans[id-1].StartNS + dur.Nanoseconds()
}

// merge folds the spans a child process recorded for one op into the
// log under fresh ids. Their times stay relative to the child's start.
func (l *spanLog) merge(spans []span, op int) {
	base := len(l.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		s.Op = op
		l.spans = append(l.spans, s)
	}
}

// write stores the spans as one JSON array, creating the directory.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
