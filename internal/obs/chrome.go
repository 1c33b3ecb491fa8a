package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"harl/internal/sim"
)

// Chrome trace_event export: the JSON object format with "X" (complete)
// and "i" (instant) events, loadable in chrome://tracing and Perfetto.
// Tracks map to thread IDs under one process, named via "M" metadata
// events. Everything is emitted in a deterministic order — tracks sorted
// by name, events in recording order — and timestamps are derived purely
// from virtual time, so the same seed always yields byte-identical JSON.

// WriteChrome writes the recorded trace as trace_event JSON.
func (t *Tracer) WriteChrome(w io.Writer) error {
	return t.WriteChromeWith(w, nil)
}

// WriteChromeWith is WriteChrome with extra synthetic spans appended to
// the export — e.g. a critical-path highlight track — sharing the same
// process and track table. Extra spans whose ID is 0 are numbered after
// the recorded spans, keeping ids unique and the output deterministic.
func (t *Tracer) WriteChromeWith(w io.Writer, extra []Span) error {
	return WriteChromeSpans(w, t.Spans(), extra)
}

// WriteChromeSpans exports an explicit span list — the flight recorder's
// window, a filtered slice, any forest not backed by a retaining tracer —
// as the same deterministic trace_event JSON WriteChrome produces. extra
// follows the WriteChromeWith contract.
func WriteChromeSpans(w io.Writer, spans, extra []Span) error {
	bw := &errWriter{w: w}
	bw.print(`{"displayTimeUnit":"ms","traceEvents":[`)

	// Stable track numbering: sorted unique track names become tids 1..n.
	tids := make(map[string]int)
	var tracks []string
	collect := func(list []Span) {
		for _, s := range list {
			if _, ok := tids[s.Track]; !ok {
				tids[s.Track] = 0
				tracks = append(tracks, s.Track)
			}
		}
	}
	collect(spans)
	collect(extra)
	sort.Strings(tracks)
	for i, name := range tracks {
		tids[name] = i + 1
	}

	// Open spans clamp to the trace horizon — the latest instant any span
	// touches — so they render with their true extent instead of zero
	// duration, still tagged "unfinished".
	horizon := sim.Time(0)
	for _, list := range [][]Span{spans, extra} {
		for _, s := range list {
			if s.Start > horizon {
				horizon = s.Start
			}
			if s.End > horizon {
				horizon = s.End
			}
		}
	}

	first := true
	for _, name := range tracks {
		if !first {
			bw.print(",")
		}
		first = false
		bw.printf(`{"ph":"M","pid":1,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
			tids[name], jsonString(name))
	}
	for _, s := range spans {
		if !first {
			bw.print(",")
		}
		first = false
		writeEvent(bw, s, tids[s.Track], horizon)
	}
	for i, s := range extra {
		if s.ID == 0 {
			s.ID = SpanID(len(spans) + i + 1)
		}
		if !first {
			bw.print(",")
		}
		first = false
		writeEvent(bw, s, tids[s.Track], horizon)
	}
	bw.print("]}\n")
	return bw.err
}

// writeEvent emits one span or instant as a trace_event record.
func writeEvent(bw *errWriter, s Span, tid int, horizon sim.Time) {
	if s.Ctr {
		// Counter events carry the sampled value in args keyed by the
		// counter name; the viewer plots them as a stepped series. The
		// value renders via FormatFloat('g', -1) — the shortest exact
		// representation — so exports stay byte-deterministic.
		bw.printf(`{"ph":"C","pid":1,"tid":%d,"ts":%s,"name":%s,"args":{%s:%s}}`,
			tid, micros(s.Start), jsonString(s.Name), jsonString(s.Name),
			strconv.FormatFloat(s.Value, 'g', -1, 64))
		return
	}
	if s.Inst {
		bw.printf(`{"ph":"i","pid":1,"tid":%d,"s":"t","ts":%s,"name":%s,"args":{`,
			tid, micros(s.Start), jsonString(s.Name))
		writeArgs(bw, s, false)
		bw.print("}}")
		return
	}
	end, unfinished := s.End, false
	if end == openEnd {
		end, unfinished = horizon, true
	}
	bw.printf(`{"ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"name":%s,"args":{`,
		tid, micros(s.Start), micros(sim.Time(end.Sub(s.Start))), jsonString(s.Name))
	writeArgs(bw, s, unfinished)
	bw.print("}}")
}

// writeArgs emits the span's id/parent and tags as the args object body.
func writeArgs(bw *errWriter, s Span, unfinished bool) {
	bw.printf(`"id":%d`, s.ID)
	if s.Parent != 0 {
		bw.printf(`,"parent":%d`, s.Parent)
	}
	if unfinished {
		bw.print(`,"unfinished":"1"`)
	}
	for _, tag := range s.Tags {
		if n, ok := tag.Int(); ok {
			// Decimal digits need no JSON escaping.
			bw.printf(",%s:\"%d\"", jsonString(tag.Key), n)
			continue
		}
		bw.printf(",%s:%s", jsonString(tag.Key), jsonString(tag.Value()))
	}
}

// micros renders a nanosecond virtual timestamp as microseconds with
// nanosecond precision — trace_event's ts/dur unit.
func micros(t sim.Time) string {
	ns := int64(t)
	return fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
}

// jsonString renders s as a JSON string literal.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		// A Go string always marshals; keep the exporter total anyway.
		return `"?"`
	}
	return string(b)
}

// errWriter latches the first write error so the emitters stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) print(s string) {
	if e.err == nil {
		_, e.err = io.WriteString(e.w, s)
	}
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}
