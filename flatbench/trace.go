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

// Span is one timed call across a layer boundary. Spans of one request
// share Req; Parent links a direct-call replay (or a nested call) to the
// span that caused it.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// Tracer keeps spans in memory; Write dumps them when the run ends. A nil
// *Tracer records nothing, so untraced phases pay one nil check per call.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span; the returned func closes it and returns its id.
func (t *Tracer) Start(name string, req, parent int64) func() int64 {
	if t == nil {
		return func() int64 { return 0 }
	}
	start := time.Since(t.t0).Nanoseconds()
	return func() int64 {
		end := time.Since(t.t0).Nanoseconds()
		t.mu.Lock()
		defer t.mu.Unlock()
		id := int64(len(t.spans) + 1)
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
		return id
	}
}

// Time runs f inside a span and returns its duration in milliseconds.
func (t *Tracer) Time(name string, req, parent int64, f func() error) (float64, error) {
	end := t.Start(name, req, parent)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	end()
	return float64(d) / 1e6, err
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// durations returns the durations (ms) of every span with the given name.
func (t *Tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// Write stores the spans as JSON lines under dir.
func (t *Tracer) Write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// selfTimes pairs each HTTP span with its direct-call replays (children
// carrying its id as Parent) and returns span − Σ children, in ms, for
// every HTTP span named httpName that has at least one child. The replay
// runs after the HTTP phase on fresh instances, so the difference is the
// time the request spent outside the replayed layers: routing, parsing,
// caching, slot waits, encoding and the loopback round trip.
func selfTimes(spans []Span, httpName string) []float64 {
	children := map[int64]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] += s.ms()
		}
	}
	var out []float64
	for _, s := range spans {
		if c, ok := children[s.ID]; ok && s.Name == httpName {
			out = append(out, s.ms()-c)
		}
	}
	return out
}
