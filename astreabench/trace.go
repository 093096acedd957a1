package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the spans a traced run keeps: the mwpm-d9 and stream-d5
// traced phases stop at the first pass boundary past it, so the span file
// stays a few tens of MB. (serve-d7's phases are a fixed number of passes.)
const maxSpans = 400_000

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Times are nanoseconds since the process started.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32 // index of the enclosing span, -1 for none
	op     int64 // operation id (input index, request seq or stream index)
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, 1024)}
}

// ns converts a wall time to the tracer's clock.
func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// add records a finished span and returns its index for children.
func (t *tracer) add(name string, parent int32, op int64, start, end time.Time) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: t.ns(start), end: t.ns(end), parent: parent, op: op})
	return int32(len(t.spans) - 1)
}

// finish sets the end of span i, recorded earlier with a provisional end.
func (t *tracer) finish(i int32, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = t.ns(end)
}

// full reports whether the span budget is spent.
func (t *tracer) full() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans) >= maxSpans
}

// durations returns the durations in seconds of every span with this name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// writeFile writes one JSON object per span, in recording order.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"op\":%d}\n",
			s.name, s.start, s.end, s.parent, s.op)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseFunc runs a timed phase of whole passes lasting at least seconds,
// recording spans on tr when it is non-nil, and returns the phase's
// throughput in operations per second.
type phaseFunc func(seconds float64, tr *tracer) (float64, error)

// timedPhases runs the workload's timed phase. An untraced run gives it all
// of rc.seconds. A traced run splits the time: an untraced half, then a
// traced half, and reports the tracing overhead as the untraced half's
// throughput over the traced half's.
func timedPhases(rc runConfig, res *result, phase phaseFunc) error {
	if rc.tr == nil {
		_, err := phase(rc.seconds, nil)
		return err
	}
	plain, err := phase(rc.seconds/2, nil)
	if err != nil {
		return err
	}
	traced, err := phase(rc.seconds/2, rc.tr)
	if err != nil {
		return err
	}
	res.metrics["trace.overhead_pct"] = (plain/traced - 1) * 100
	res.metrics["trace.spans"] = float64(len(rc.tr.spans))
	return nil
}
