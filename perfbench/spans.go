package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval of the traced run. Parent links a span to the
// span it ran inside (0 for a root); Req is the request or cell id every
// span of one operation shares. Start and End are nanoseconds since the
// tracer's epoch. A folded span stands for Count intervals of the same
// name under the same parent (one Policy.Submit per job, say): Start and
// End bound them and Total is the sum of their durations.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
	Total  int64  `json:"total_ns,omitempty"`
}

// Dur is the time the span accounts for: the folded total, or End−Start.
func (s Span) Dur() int64 {
	if s.Count > 0 {
		return s.Total
	}
	return s.End - s.Start
}

// Tracer keeps spans in memory until the run writes them out. A nil or
// disabled Tracer records nothing, so untraced runs pay one atomic load
// per instrumented call.
type Tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []Span
}

// newTracer returns a tracer whose clock starts now.
func newTracer(enabled bool) *Tracer {
	t := &Tracer{epoch: time.Now()} //lint:allow wallclock — the span clock measures real elapsed time by design
	t.on.Store(enabled)
	return t
}

// enabled reports whether spans are being recorded.
func (t *Tracer) enabled() bool { return t != nil && t.on.Load() }

// now returns nanoseconds since the epoch.
func (t *Tracer) now() int64 {
	return int64(time.Since(t.epoch)) //lint:allow wallclock — the span clock measures real elapsed time by design
}

// newID allocates a span id (ids start at 1; 0 means "no parent").
func (t *Tracer) newID() uint64 { return t.nextID.Add(1) }

// record appends finished spans.
func (t *Tracer) record(s ...Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s...)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *Tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// layerTime is one span name's aggregate: how many spans, their summed
// duration, and their summed self time (duration minus child durations).
type layerTime struct {
	N     int64
	Total int64
	Self  int64
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the durations of its direct children; folded spans count Count
// occurrences.
func selfTimes(spans []Span) map[string]layerTime {
	children := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.Dur()
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		n := s.Count
		if n == 0 {
			n = 1
		}
		lt.N += n
		lt.Total += s.Dur()
		lt.Self += s.Dur() - children[s.ID]
		out[s.Name] = lt
	}
	return out
}

// meanUS is a layer's mean duration per occurrence in microseconds.
func (lt layerTime) meanUS() float64 {
	if lt.N == 0 {
		return 0
	}
	return float64(lt.Total) / float64(lt.N) / 1e3
}

// selfUS is a layer's mean self time per occurrence in microseconds.
func (lt layerTime) selfUS() float64 {
	if lt.N == 0 {
		return 0
	}
	return float64(lt.Self) / float64(lt.N) / 1e3
}

// writeSpans writes the span dump as JSON with the capture's provenance.
func writeSpans(path string, prov provenance, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].ID < spans[j].ID })
	b, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Spans      []Span     `json:"spans"`
	}{prov, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// goid returns the calling goroutine's id, parsed from its stack header.
// The control plane issues each forward on the goroutine serving the
// client's request, so the id links a forward to its parent span without
// any change to the plane.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, err := strconv.ParseUint(string(b), 10, 64)
	if err != nil {
		return 0 // links nothing
	}
	return id
}
