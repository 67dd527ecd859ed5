package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpclust/internal/obs"
)

// span is one benchmark-side interval on the wall clock: a call into a
// layer's public entry point, or a program span placed under such a call.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Layer  string
	Req    int   // request id on serve-mix, -1 elsewhere
	Start  int64 // ns since the tracer's origin
	End    int64
	Placed bool // a program span: its duration was measured, its placement reconstructed
}

// tracer keeps the spans of one traced run in memory until the run ends.
// A nil *tracer records nothing, so untraced runs pass nil everywhere.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	prog   []obs.Span // every program span, on the program's virtual clock
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.origin).Nanoseconds() }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, req int) int {
	if t == nil {
		return -1
	}
	at := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Req: req, Start: at, End: at})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	at := t.now()
	t.mu.Lock()
	t.spans[id].End = at
	t.mu.Unlock()
}

// interval records an already-timed span (wall instants relative to the
// origin) and returns its id.
func (t *tracer) interval(name, layer string, parent, req int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Req: req,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds()})
	return id
}

// attachProgram collects a program recorder's spans. Those that carry a
// wall duration (obs.Recorder.Start/End sites) become children of span
// parent, nested among themselves by virtual-time containment. Their wall
// placement is reconstructed: siblings are laid end to end from the
// parent's start in virtual order. That placement is exact in length and
// order because the simulator runs every launch on the calling goroutine,
// so the spans of one call never overlap on the wall clock; only where in
// the parent the gaps fall is unknown, which self time does not depend on.
// layerOf assigns each placed span its layer. With parent -1 the spans
// are only collected for the trace file.
func (t *tracer) attachProgram(parent int, rec *obs.Recorder, layerOf func(obs.Span) string) {
	if t == nil || rec == nil {
		return
	}
	all := rec.Spans()
	var walled []obs.Span
	for _, s := range all {
		if s.WallNs > 0 {
			walled = append(walled, s)
		}
	}
	sort.SliceStable(walled, func(i, j int) bool {
		if walled[i].StartNs != walled[j].StartNs {
			return walled[i].StartNs < walled[j].StartNs
		}
		return walled[i].EndNs > walled[j].EndNs
	})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.prog = append(t.prog, all...)
	if parent < 0 {
		return
	}
	type open struct {
		id     int
		vEnd   float64
		cursor int64
	}
	root := t.spans[parent]
	stack := []open{{id: parent, vEnd: 1e300, cursor: root.Start}}
	for _, s := range walled {
		for len(stack) > 1 && (s.StartNs >= stack[len(stack)-1].vEnd || s.EndNs > stack[len(stack)-1].vEnd) {
			stack = stack[:len(stack)-1]
		}
		top := &stack[len(stack)-1]
		limit := t.spans[top.id].End
		start := min(top.cursor, limit)
		end := min(start+s.WallNs, limit)
		top.cursor = end
		id := len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: top.id, Name: s.Track + "/" + s.Name,
			Layer: layerOf(s), Req: -1, Start: start, End: end, Placed: true})
		stack = append(stack, open{id: id, vEnd: s.EndNs, cursor: start})
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each layer's self time in ns: the sum over the layer's
// spans of the span's duration minus the union of its children's
// intervals, each child clipped to its parent. Children may overlap one
// another (concurrent requests, pipelined work); the union counts shared
// time once.
func selfTimes(spans []span) map[string]float64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += float64(s.End - s.Start - covered(s.Start, s.End, kids[s.ID]))
	}
	return out
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	var c [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			c = append(c, [2]int64{a, b})
		}
	}
	sort.Slice(c, func(i, j int) bool { return c[i][0] < c[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range c {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeTrace writes the run's spans as a Chrome trace (chrome://tracing,
// Perfetto): process 1 holds the benchmark's wall-clock spans, one thread
// per layer; process 2 holds every program span on the program's virtual
// clock, one thread per track.
func (t *tracer) writeTrace(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  string         `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var evs []event
	for _, s := range t.snapshot() {
		args := map[string]any{"id": s.ID, "parent": s.Parent}
		if s.Req >= 0 {
			args["req"] = s.Req
		}
		if s.Placed {
			args["placed"] = true
		}
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3, Pid: 1, Tid: s.Layer, Args: args})
	}
	t.mu.Lock()
	prog := append([]obs.Span(nil), t.prog...)
	t.mu.Unlock()
	for _, s := range prog {
		evs = append(evs, event{Name: s.Name, Ph: "X", Ts: s.StartNs / 1e3,
			Dur: (s.EndNs - s.StartNs) / 1e3, Pid: 2, Tid: s.Track})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": evs}); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
