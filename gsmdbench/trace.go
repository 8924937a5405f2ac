package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call. Spans of one request or one replayed query share
// a trace id; Parent is 0 for a trace's root.
type span struct {
	Name   string `json:"name"`
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	traces int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// trace allocates a fresh trace id.
func (t *tracer) trace() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traces++
	return t.traces
}

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, trace, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, trace, parent int, f func(id int)) time.Duration {
	id := t.begin(name, trace, parent)
	t0 := time.Now()
	f(id)
	d := time.Since(t0)
	t.end(id)
	return d
}

// selfTime is one span name's count and summed self time: each span's
// duration minus the part its direct children cover.
type selfTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) selfTimes() []selfTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*selfTime{}
	for _, s := range t.spans {
		st := by[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			by[s.Name] = st
		}
		st.Count++
		st.SelfMS += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// write saves every span plus the self-time table to path and prints the
// table to standard error.
func (t *tracer) write(path string) error {
	self := t.selfTimes()
	fmt.Fprintf(os.Stderr, "%-24s %8s %12s\n", "span", "count", "self_ms")
	for _, st := range self {
		fmt.Fprintf(os.Stderr, "%-24s %8d %12.3f\n", st.Name, st.Count, st.SelfMS)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span     `json:"spans"`
		Self  []selfTime `json:"self"`
	}{t.spans, self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
