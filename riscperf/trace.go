package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: which call, when it
// ran, the span that caused it, and the operation it belongs to. CPU is the
// thread CPU time the call used, where the caller measured it; Count is the
// work the call did in its layer's unit (simulated instructions for a run,
// runs for a pass).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	CPU    int64  `json:"cpu_ns,omitempty"`
	Count  uint64 `json:"count,omitempty"`

	startCPU time.Duration
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs stay free of tracing cost.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns a fresh operation id; every span of one operation shares it.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// record stores a finished span and returns its id. cpu is the thread CPU
// time the call used, or 0 when it was not measured.
func (t *tracer) record(name string, op, parent int64, start, end time.Time, cpu time.Duration, count uint64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
		CPU: cpu.Nanoseconds(), Count: count,
	})
	return id
}

// begin opens a span whose children are recorded before it ends, and
// returns its id; end closes it. Both take a stamp from the same thread.
func (t *tracer) begin(name string, op, parent int64, at stamp) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: at.wall.Sub(t.t0).Nanoseconds(), startCPU: at.cpu,
	})
	return id
}

func (t *tracer) end(id int64, at stamp, count uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = at.wall.Sub(t.t0).Nanoseconds()
	s.CPU = (at.cpu - s.startCPU).Nanoseconds()
	s.Count = count
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
