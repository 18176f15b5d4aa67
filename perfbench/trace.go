package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one benchmark-side span: a call from the benchmark into a layer.
// Spans of one request or rung share Req; Parent links a span to the span
// that caused it.
type span struct {
	Name   string
	ID     uint64
	Parent uint64
	Req    uint64
	Start  int64 // unix nanoseconds
	Dur    int64
	Args   map[string]any
	Pid    int // trace process: 1 the benchmark, 2 the program
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced passes share the traced code path at no cost.
type spanLog struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

// begin opens a span; end it with (*spanLog).end.
func (l *spanLog) begin(name string, parent, req uint64) span {
	if l == nil {
		return span{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return span{Name: name, ID: id, Parent: parent, Req: req, Start: time.Now().UnixNano()}
}

func (l *spanLog) end(s span, args map[string]any) {
	if l == nil {
		return
	}
	s.Dur = time.Now().UnixNano() - s.Start
	s.Args = args
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// add records spans that were timed elsewhere (by the ladder child, or by
// the program's own tracer), under process id pid in the trace file.
func (l *spanLog) add(pid int, ss []span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	for _, s := range ss {
		s.Pid = pid
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

// chromeEvent is one entry of the Chrome trace-event JSON array, the format
// internal/obs writes: complete events ("X") with microsecond ts/dur, and
// one counter snapshot ("C").
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans and the counter snapshot as a Chrome trace.
// Process 1 is the benchmark, process 2 the program's own obs spans.
func (l *spanLog) write(path string, counters map[string]float64) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var t0 int64
	for _, s := range l.spans {
		if t0 == 0 || s.Start < t0 {
			t0 = s.Start
		}
	}
	out := make([]chromeEvent, 0, len(l.spans)+1)
	var last float64
	for _, s := range l.spans {
		args := map[string]any{"id": s.ID, "req": s.Req}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		for k, v := range s.Args {
			args[k] = v
		}
		pid := s.Pid
		if pid == 0 {
			pid = 1
		}
		ts := float64(s.Start-t0) / 1e3
		dur := float64(s.Dur) / 1e3
		if ts+dur > last {
			last = ts + dur
		}
		out = append(out, chromeEvent{Name: s.Name, Ph: "X", Ts: ts, Dur: dur, Pid: pid, Tid: 1, Args: args})
	}
	if len(counters) > 0 {
		args := make(map[string]any, len(counters))
		for k, v := range counters {
			args[k] = v
		}
		out = append(out, chromeEvent{Name: "program counters", Ph: "C", Ts: last, Pid: 2, Tid: 1, Args: args})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
