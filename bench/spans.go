package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one harness span: a public call into a layer, or the root
// span of an iteration. All spans of one iteration share Iter.
type span struct {
	Name       string
	Iter       int
	Start, End time.Duration // since the log's origin
	Parent     int           // index of the parent span; -1 for a root
}

// spanLog keeps the harness's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
	open   []int // stack of open spans
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (l *spanLog) begin(iter int, name string) int {
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, span{Name: name, Iter: iter, Start: time.Since(l.origin), Parent: parent})
	i := len(l.spans) - 1
	l.open = append(l.open, i)
	return i
}

// end closes the innermost open span, which must be i.
func (l *spanLog) end(i int) {
	l.spans[i].End = time.Since(l.origin)
	l.open = l.open[:len(l.open)-1]
}

// selfSeconds sums each span name's self time within one iteration: its
// duration minus the part its direct children cover.
func (l *spanLog) selfSeconds(iter int) map[string]float64 {
	self := map[string]time.Duration{}
	for _, s := range l.spans {
		if s.Iter != iter {
			continue
		}
		d := s.End - s.Start
		self[s.Name] += d
		if s.Parent >= 0 {
			self[l.spans[s.Parent].Name] -= d
		}
	}
	out := make(map[string]float64, len(self))
	for name, d := range self {
		out[name] = d.Seconds()
	}
	return out
}

// find returns the first span of an iteration with the given name.
func (l *spanLog) find(iter int, name string) (span, bool) {
	for _, s := range l.spans {
		if s.Iter == iter && s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// writeChrome writes every span as a Chrome trace (chrome://tracing or
// Perfetto): one row per iteration, with the span's parent in its args.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(l.spans))
	for i, s := range l.spans {
		parent := ""
		if s.Parent >= 0 {
			parent = l.spans[s.Parent].Name
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Iter,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": i, "parent_id": s.Parent, "parent": parent, "iteration": s.Iter},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
