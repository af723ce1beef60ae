package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// tracer records spans around the benchmark's own calls into each
// layer's public functions. Spans live in memory and are written out
// once, when the run ends. A nil *tracer records nothing, so untraced
// code paths pay one nil check per call site.
//
// The benchmark drives each layer from one goroutine, so spans nest
// strictly: a span's children run one after another inside it, and its
// self time is its duration minus the sum of its children's.
type tracer struct {
	base  time.Time
	spans []span
	open  []int
}

type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into spans, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// child is the summed duration of direct children.
	child int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// start opens a span under the innermost open span.
func (t *tracer) start(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.base))})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[i]
	s.End = int64(time.Since(t.base))
	d := s.End - s.Start
	if s.Parent >= 0 {
		t.spans[s.Parent].child += d
	}
	return time.Duration(d)
}

// layerTimes sums self time and counts spans by name.
type layerTimes struct {
	self  map[string]time.Duration
	count map[string]int
	// total is the summed duration of root spans.
	total time.Duration
	roots int
}

func (t *tracer) times() layerTimes {
	lt := layerTimes{self: map[string]time.Duration{}, count: map[string]int{}}
	for _, s := range t.spans {
		lt.self[s.Name] += time.Duration(s.End - s.Start - s.child)
		lt.count[s.Name]++
		if s.Parent < 0 {
			lt.total += time.Duration(s.End - s.Start)
			lt.roots++
		}
	}
	return lt
}

// perSpan is the mean self time of spans named name, per span of that
// name (0 when none ran).
func (lt layerTimes) perSpan(name string) time.Duration {
	if lt.count[name] == 0 {
		return 0
	}
	return lt.self[name] / time.Duration(lt.count[name])
}

// write saves the spans as JSON under the checkout's build directory.
func (t *tracer) write(root, workload string, seed uint64) (string, error) {
	dir := filepath.Join(root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	data, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
