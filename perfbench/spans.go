package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one call across a layer boundary. Start and End are Unix
// nanoseconds, so spans recorded by the benchmark and by a traced
// server process on the same host share one clock. Spans of one serve
// request share Req.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    string `json:"req,omitempty"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// Span layers. Each span belongs to the layer whose code runs inside it
// and outside its children.
const (
	layerBench  = "bench"  // the benchmark's own loop: passes, phases, rungs, checks
	layerCLI    = "cli"    // a dvsim subprocess
	layerClient = "client" // an HTTP request as the client sees it, minus the server
	layerServer = "server" // dvsimd's handler for that request
)

var spanLayers = []string{layerBench, layerCLI, layerClient, layerServer}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the timed runs measure with tracing off.
type tracer struct {
	mu    sync.Mutex
	next  int64
	spans []Span
	open  map[int64]int
}

func newTracer() *tracer { return &tracer{open: make(map[int64]int)} }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name, layer string, parent int64, req string) int64 {
	if t == nil {
		return 0
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.open[t.next] = len(t.spans)
	t.spans = append(t.spans, Span{ID: t.next, Parent: parent, Req: req, Name: name, Layer: layer, Start: now})
	return t.next
}

// end closes the span opened as id.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.open[id]; ok {
		t.spans[i].End = now
		delete(t.open, id)
	}
}

// add appends spans recorded elsewhere (a traced server's file).
func (t *tracer) add(spans []Span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spans...)
}

func (t *tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each layer's self time in nanoseconds: for every
// closed span, its duration minus the part of its interval that its
// children cover (overlapping children count once), summed by layer.
func selfTimes(spans []Span) map[string]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 && s.End > s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		if s.End <= s.Start {
			continue
		}
		self[s.Layer] += s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readSpans(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s Span
		if err := dec.Decode(&s); err != nil {
			return nil, fmt.Errorf("reading spans %s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, nil
}
