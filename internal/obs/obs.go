// Package obs is the simulator's observability layer: a span-based
// tracer and a metrics registry, both driven by the discrete-event
// engine's virtual clock.
//
// Spans form a forest — each carries an optional parent ID — and live on
// named tracks (one per client, server or network attachment), so a
// request's journey client → network → disk renders as nested intervals
// in a timeline viewer. Instant events annotate fault episodes (crash,
// recover, straggle) inline on the affected track. The whole trace
// exports to Chrome trace_event JSON (chrome.go), loadable in Perfetto.
//
// # Determinism contract
//
// A Tracer is a passive observer of the simulation:
//
//   - it never schedules events, arms timers, or draws from the engine's
//     random source, so an instrumented run executes the exact event
//     sequence of an uninstrumented one;
//   - every timestamp is virtual time and every span ID comes from a
//     plain counter, so two runs from the same seed produce byte-identical
//     exported traces — no wall-clock reads anywhere;
//   - a nil *Tracer is a valid, disabled tracer: every method is
//     nil-receiver safe and returns immediately. Hot paths guard with
//     `if tr != nil` before building tag lists, which keeps the disabled
//     path free of allocations.
//
// The Tracer is not safe for concurrent use; like every simulated
// component it runs on the single-threaded engine loop.
package obs

import (
	"strconv"
	"unsafe"

	"harl/internal/sim"
)

// SpanID identifies one span within a Tracer. 0 is "no span" — the zero
// parent roots a new span tree, and disabled tracers hand out 0 for
// every span so call sites can thread IDs without caring whether tracing
// is on.
type SpanID int64

// Tag is one key/value annotation on a span or instant event. A tag
// built by TInt keeps its integer and renders the decimal text only when
// read (Value, the Chrome and Prometheus writers, registry keys), so hot
// paths tag spans with numbers without formatting them. Compare tags by
// Key and Value, not with ==.
type Tag struct {
	Key string
	// A string value keeps its data pointer in str and its length in
	// num; an integer value has str == &intTag and the integer in num.
	// The zero Tag is an empty key with an empty value. The layout
	// follows log/slog.Value: a tag stays 32 bytes and boxes nothing.
	str *byte
	num int64
}

// intTag is the str sentinel that marks an integer tag.
var intTag byte

// T builds a string tag.
func T(key, value string) Tag {
	if value == "" {
		return Tag{Key: key}
	}
	return Tag{Key: key, str: unsafe.StringData(value), num: int64(len(value))}
}

// TInt builds an integer tag.
func TInt(key string, value int64) Tag {
	return Tag{Key: key, str: &intTag, num: value}
}

// Int returns an integer tag's value; ok is false for a string tag.
func (t Tag) Int() (n int64, ok bool) {
	return t.num, t.str == &intTag
}

// Value returns the tag's value as text; an integer tag renders in
// decimal.
func (t Tag) Value() string {
	switch t.str {
	case nil:
		return ""
	case &intTag:
		return strconv.FormatInt(t.num, 10)
	}
	return unsafe.String(t.str, int(t.num))
}

// String renders the tag as key=value.
func (t Tag) String() string { return t.Key + "=" + t.Value() }

// openEnd marks a span whose End was never called; the exporter clamps
// it to the trace horizon and tags it "unfinished".
const openEnd sim.Time = -1

// Span is one recorded interval (or instant) on the virtual timeline.
type Span struct {
	ID     SpanID
	Parent SpanID
	Track  string
	Name   string
	Start  sim.Time
	End    sim.Time // openEnd (-1) while the span is open
	Inst   bool     // instant annotation, not an interval
	Ctr    bool     // counter sample: Value at Start on a counter track
	Value  float64  // counter sample value (Ctr only)
	Tags   []Tag
}

// Duration returns the span's length, 0 for instants and open spans.
func (s *Span) Duration() sim.Duration {
	if s.Inst || s.End < s.Start {
		return 0
	}
	return s.End.Sub(s.Start)
}

// Tag returns the value of the named tag and whether it is present.
func (s *Span) Tag(key string) (string, bool) {
	for _, t := range s.Tags {
		if t.Key == key {
			return t.Value(), true
		}
	}
	return "", false
}

// SpanSink receives finalized spans from a streaming tracer. The span
// and its Tags belong to the tracer and are valid only during the call:
// the tracer reuses both for later spans, so a sink that keeps anything
// copies it (the flight recorder copies into its own ring slots). Sinks
// must honor the tracer's passive-observer contract — no event
// scheduling, no engine RNG draws, and no calls back into the tracer —
// so a sink-attached run stays event-for-event identical to a bare one.
// The flight recorder (internal/telemetry) is the canonical
// implementation.
type SpanSink interface {
	OnSpan(s *Span)
}

// Tracer records spans against an engine's virtual clock. The zero of
// *Tracer (nil) is a disabled tracer; see the package comment.
//
// A tracer runs in one of two modes. The retaining mode (NewTracer)
// appends every span to an in-memory slice for whole-run export — memory
// grows with the run. The streaming mode (NewStreamTracer) retains
// nothing: open spans live in a slab of reused slots, and each span is
// handed to a SpanSink the moment it finalizes (End, or allocation for
// instants/counters/retroactive emits), so memory stays bounded by the
// number of concurrently open spans regardless of run length. Span IDs
// come from the same plain counter in both modes, so a streaming sink
// observes exactly the IDs a retaining tracer would have recorded.
//
// Neither mode keeps the caller's tag slice: tags are copied into
// storage the tracer owns (a chunked arena when retaining, the span's
// slot when streaming), so variadic tag lists stay on the caller's stack
// and a warm streaming tracer allocates nothing per span.
type Tracer struct {
	engine  *sim.Engine
	spans   []Span
	arena   []Tag // retaining mode: the chunk span tags are carved from
	dropped uint64

	// Streaming mode (nil sink = retaining mode).
	sink    SpanSink
	open    map[SpanID]int32 // open span ID -> index into slots
	slots   []Span           // open spans; a freed slot keeps its tag storage
	free    []int32          // indices of free slots
	scratch Span             // delivers Emit, Counter and Instant spans
	nextID  SpanID
}

// tagChunk is the retaining arena's chunk length, in tags.
const tagChunk = 1024

// NewTracer returns an enabled, retaining tracer reading timestamps
// from e.
func NewTracer(e *sim.Engine) *Tracer {
	if e == nil {
		panic("obs: tracer needs an engine")
	}
	return &Tracer{engine: e}
}

// NewStreamTracer returns an enabled tracer that retains nothing:
// finalized spans stream to sink and are discarded. Len and Spans report
// only retained spans, so they stay 0/nil for a streaming tracer.
func NewStreamTracer(e *sim.Engine, sink SpanSink) *Tracer {
	if e == nil {
		panic("obs: tracer needs an engine")
	}
	if sink == nil {
		panic("obs: stream tracer needs a sink")
	}
	return &Tracer{engine: e, sink: sink, open: make(map[SpanID]int32)}
}

// Streaming reports whether the tracer delivers spans to a sink instead
// of retaining them.
func (t *Tracer) Streaming() bool { return t != nil && t.sink != nil }

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Len returns the number of recorded spans and instants.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans exposes the recorded spans in emission order. The slice is the
// tracer's backing store; callers must not modify it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// newSpan assigns the next dense span ID (so IDs are deterministic and
// 0 stays "no span") and returns the zeroed span to fill, holding a copy
// of tags: a new entry in the retained list, an open-span slot for a
// streaming Begin, or the scratch span a streaming Emit, Counter or
// Instant delivers through.
func (t *Tracer) newSpan(open bool, tags []Tag) *Span {
	t.nextID++
	var s *Span
	switch {
	case t.sink == nil:
		t.spans = append(t.spans, Span{ID: t.nextID, Tags: t.keep(tags, nil)})
		return &t.spans[len(t.spans)-1]
	case open:
		i := t.takeSlot()
		t.open[t.nextID] = i
		s = &t.slots[i]
	default:
		s = &t.scratch
	}
	*s = Span{ID: t.nextID, Tags: append(s.Tags[:0], tags...)}
	return s
}

// keep copies head then tail into the retaining arena and returns them
// as one slice whose capacity ends at its length, so a later append
// never writes into a neighbour's tags.
func (t *Tracer) keep(head, tail []Tag) []Tag {
	n := len(head) + len(tail)
	if n == 0 {
		return nil
	}
	if cap(t.arena)-len(t.arena) < n {
		t.arena = make([]Tag, 0, max(tagChunk, n))
	}
	i := len(t.arena)
	t.arena = append(append(t.arena, head...), tail...)
	return t.arena[i:len(t.arena):len(t.arena)]
}

// takeSlot pops a free open-span slot, growing the slab when none is
// free.
func (t *Tracer) takeSlot() int32 {
	if n := len(t.free); n > 0 {
		i := t.free[n-1]
		t.free = t.free[:n-1]
		return i
	}
	t.slots = append(t.slots, Span{})
	return int32(len(t.slots) - 1)
}

// deliver hands a span that is complete at creation to the sink; a
// no-op when retaining.
func (t *Tracer) deliver(s *Span) SpanID {
	if t.sink != nil {
		t.sink.OnSpan(s)
	}
	return s.ID
}

// Begin opens a span at the current virtual time. Close it with End.
func (t *Tracer) Begin(track, name string, parent SpanID, tags ...Tag) SpanID {
	if t == nil {
		return 0
	}
	s := t.newSpan(true, tags)
	s.Parent, s.Track, s.Name = parent, track, name
	s.Start, s.End = t.engine.Now(), openEnd
	return s.ID
}

// End closes a span at the current virtual time, appending any extra
// tags (status, outcome). Ending span 0 is a silent no-op — disabled
// tracers hand out 0, so completion paths need no bookkeeping. Ending an
// unknown, already-ended or non-interval span is also a no-op, but it
// always indicates an instrumentation bug, so it counts into Dropped.
func (t *Tracer) End(id SpanID, tags ...Tag) {
	if t == nil || id == 0 {
		return
	}
	if t.sink != nil {
		i, ok := t.open[id]
		if !ok {
			// Unknown, already-ended, or non-interval — the same
			// instrumentation bugs the retaining mode counts.
			t.dropped++
			return
		}
		delete(t.open, id)
		s := &t.slots[i]
		s.End = t.engine.Now()
		s.Tags = append(s.Tags, tags...)
		t.sink.OnSpan(s)
		t.free = append(t.free, i)
		return
	}
	if id < 0 || int(id) > len(t.spans) {
		t.dropped++
		return
	}
	s := &t.spans[id-1]
	if s.End != openEnd || s.Inst {
		t.dropped++
		return
	}
	s.End = t.engine.Now()
	if len(tags) > 0 {
		s.Tags = t.keep(s.Tags, tags)
	}
}

// Dropped reports how many End calls were discarded because they named
// an unknown, already-ended or non-interval span — 0 on a healthy run.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Emit records a complete span retroactively — used where the interval's
// bounds are only known at completion, like a resource queue reporting
// (start, end) to its done callback.
func (t *Tracer) Emit(track, name string, parent SpanID, start, end sim.Time, tags ...Tag) SpanID {
	if t == nil {
		return 0
	}
	if end < start {
		end = start
	}
	s := t.newSpan(false, tags)
	s.Parent, s.Track, s.Name = parent, track, name
	s.Start, s.End = start, end
	return t.deliver(s)
}

// Counter records one sample of a named time-series value at an explicit
// virtual time — drift scores, staleness flags, queue depths. Chrome's
// trace viewer renders counter samples on the same name as a stepped
// graph alongside the span tracks. The timestamp is a parameter (not
// engine.Now()) because counters are usually sampled at window
// boundaries that precede the event that closed the window.
func (t *Tracer) Counter(track, name string, at sim.Time, value float64) SpanID {
	if t == nil {
		return 0
	}
	s := t.newSpan(false, nil)
	s.Track, s.Name = track, name
	s.Start, s.End = at, at
	s.Ctr, s.Value = true, value
	return t.deliver(s)
}

// Instant records a zero-duration annotation at the current virtual
// time — fault injections, retries, hedges.
func (t *Tracer) Instant(track, name string, parent SpanID, tags ...Tag) SpanID {
	if t == nil {
		return 0
	}
	now := t.engine.Now()
	s := t.newSpan(false, tags)
	s.Parent, s.Track, s.Name = parent, track, name
	s.Start, s.End, s.Inst = now, now, true
	return t.deliver(s)
}
