package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one call the harness made into a layer. Spans live in memory until
// the run ends; parent is an index into tracer.spans (-1 for a root).
type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int
	cycle      int
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer records spans around harness calls. The harness is a single
// goroutine, so a stack gives the parent. A nil or switched-off tracer
// records nothing: end-to-end metrics are always measured that way.
type tracer struct {
	on    bool
	t0    time.Time
	cycle int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs f inside a span named name (layer.call, e.g. "core.execute").
func (t *tracer) do(name string, f func() error) error {
	if t == nil || !t.on {
		return f()
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, cycle: t.cycle})
	t.stack = append(t.stack, id)
	err := f()
	t.spans[id].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// selfTimes returns each span's duration minus the part its direct children
// cover.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// total sums the durations of the cycle's spans with this exact name, in
// seconds.
func (t *tracer) total(cycle int, name string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		if s.cycle == cycle && s.name == name {
			d += s.dur()
		}
	}
	return d.Seconds()
}

// layerCounts counts the cycle's spans by layer (the span name up to the
// first dot).
func (t *tracer) layerCounts(cycle int) map[string]int {
	counts := make(map[string]int)
	for _, s := range t.spans {
		if s.cycle == cycle {
			layer, _, _ := strings.Cut(s.name, ".")
			counts[layer]++
		}
	}
	return counts
}

// coverage is the share of the cycle's spans named root that their direct
// children cover: 1 − self ÷ duration, over all of them. The harness's own
// spans (the calibrator between segments) are outside the timed region and
// count for neither side.
func (t *tracer) coverage(cycle int, root string) float64 {
	self := selfTimes(t.spans)
	var d, s time.Duration
	for i, sp := range t.spans {
		if sp.cycle != cycle {
			continue
		}
		if sp.name == root {
			d += sp.dur()
			s += self[i]
		} else if strings.HasPrefix(sp.name, "harness.") {
			d -= sp.dur()
		}
	}
	if d <= 0 {
		return 0
	}
	return 1 - s.Seconds()/d.Seconds()
}

// writeChrome writes the spans as Chrome trace-event JSON (open it at
// chrome://tracing or ui.perfetto.dev). The layer — the span name up to the
// first dot — is the category; self time, parent and cycle ride in args.
func (t *tracer) writeChrome(path string) error {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	self := selfTimes(t.spans)
	evs := make([]ev, len(t.spans))
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.name, ".")
		parent := ""
		if s.parent >= 0 {
			parent = fmt.Sprintf("%d:%s", s.parent, t.spans[s.parent].name)
		}
		evs[i] = ev{
			Name: s.name, Cat: layer, Ph: "X", Pid: 1, Tid: 1,
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Args: map[string]any{
				"id": i, "parent": parent, "cycle": s.cycle,
				"self_us": float64(self[i].Nanoseconds()) / 1e3,
			},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
