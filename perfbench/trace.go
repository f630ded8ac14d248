package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed interval of the traced run. Spans of one broadcast
// share its Trace id: the Cluster.Broadcast or Agent.Broadcast call and
// every delivery it caused.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: root
	Trace   uint64 `json:"trace"`  // broadcast id; 0 for phase spans
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the run began
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so untraced runs pay one nil check per call
// site. It is used from one goroutine; spans produced on agent goroutines
// are buffered there and added after the agents stop.
type tracer struct {
	origin  time.Time
	spans   []span
	limit   int
	dropped int
}

func newTracer(origin time.Time, limit int) *tracer {
	return &tracer{origin: origin, limit: limit}
}

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

// add records a span and returns its id (0 when nil or over the limit).
func (t *tracer) add(parent int, trace uint64, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	return t.addNs(parent, trace, name, t.ns(start), t.ns(end))
}

func (t *tracer) addNs(parent int, trace uint64, name string, startNs, endNs int64) int {
	if t == nil {
		return 0
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, StartNs: startNs, EndNs: endNs})
	return id
}

// phase starts a phase span; the returned function closes it.
func (t *tracer) phase(name string) (id int, end func()) {
	if t == nil {
		return 0, func() {}
	}
	start := time.Now()
	id = t.add(0, 0, name, start, start)
	return id, func() {
		if id > 0 {
			t.spans[id-1].EndNs = t.ns(time.Now())
		}
	}
}

// write stores the spans as JSON lines at path, the environment first.
func (t *tracer) write(path string, env map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"env": env, "spans": len(t.spans), "dropped": t.dropped}); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}
