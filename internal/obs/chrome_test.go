package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"harl/internal/sim"
)

// An enabled tracer that recorded nothing must still export a valid,
// empty trace document.
func TestChromeZeroSpans(t *testing.T) {
	tr := NewTracer(sim.NewEngine(1))
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	want := "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}\n"
	if b.String() != want {
		t.Errorf("empty export = %q, want %q", b.String(), want)
	}
	if !json.Valid(b.Bytes()) {
		t.Error("empty export is not valid JSON")
	}
}

// A span without tags must close its args object cleanly.
func TestChromeSpanWithoutTags(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	id := tr.Begin("c0", "op", 0)
	tr.End(id)
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", b.String())
	}
	if !strings.Contains(b.String(), `"args":{"id":1}`) {
		t.Errorf("tagless span args malformed:\n%s", b.String())
	}
}

// A track holding only instants still gets a thread_name metadata record
// and a deterministic tid.
func TestChromeInstantOnlyTrack(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	tr.Instant("faults", "crash", 0, T("server", "h0"))
	tr.Instant("faults", "recover", 0)
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !json.Valid(b.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", out)
	}
	for _, want := range []string{
		`"name":"thread_name","args":{"name":"faults"}`,
		`"ph":"i"`,
		`"name":"crash"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("instant-only export missing %q:\n%s", want, out)
		}
	}
}

// Counter samples export as ph:"C" events carrying the value in args,
// with shortest-exact float rendering.
func TestChromeCounterTrack(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	tr.Counter("monitor", "drift.r0", 1500, 0.25)
	tr.Counter("monitor", "drift.r0", 3000, 1.75)
	tr.Counter("monitor", "stale.r0", 3000, 1)
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !json.Valid(b.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%s", out)
	}
	for _, want := range []string{
		`"ph":"C"`,
		`"name":"drift.r0","args":{"drift.r0":0.25}`,
		`"ts":3.000,"name":"drift.r0","args":{"drift.r0":1.75}`,
		`"args":{"stale.r0":1}`,
		`"name":"thread_name","args":{"name":"monitor"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("counter export missing %q:\n%s", want, out)
		}
	}
}

// Mixed traces (spans, instants, counters, an unfinished span) must be
// byte-identical across identical recordings — the unit form of the
// determinism contract `make trace` checks on two harlctl trace exports.
func TestChromeExportDeterministic(t *testing.T) {
	record := func() *bytes.Buffer {
		e := sim.NewEngine(7)
		tr := NewTracer(e)
		id := tr.Begin("c0", "mpi.write", 0, TInt("bytes", 4096))
		tr.Counter("monitor", "drift.r0", 0, 0.5)
		tr.Emit("h0", "disk.write", id, 10, 20, T("tier", "hdd"))
		tr.End(id, T("status", "ok"))
		tr.Begin("c1", "mpi.read", 0) // left open: exporter clamps it
		var b bytes.Buffer
		if err := tr.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		return &b
	}
	a, b := record(), record()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("identical recordings exported different bytes:\n%s\n---\n%s", a, b)
	}
	if !strings.Contains(a.String(), `"unfinished":"1"`) {
		t.Error("open span not marked unfinished")
	}
}

// Counter on a nil tracer is a no-op returning span ID 0.
func TestNilTracerCounter(t *testing.T) {
	var tr *Tracer
	if id := tr.Counter("monitor", "drift", 0, 1); id != 0 {
		t.Errorf("nil tracer Counter returned id %d", id)
	}
	if n := testing.AllocsPerRun(100, func() {
		tr.Counter("monitor", "drift", 0, 1)
	}); n != 0 {
		t.Errorf("nil tracer Counter allocates %v per call", n)
	}
}

// An open span exports with its true extent — clamped to the trace
// horizon, not zero duration — and carries the unfinished marker.
func TestChromeUnfinishedClampsToHorizon(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	open := tr.Begin("c0", "mpi.write", 0)
	_ = open
	tr.Emit("h0", "disk.write", 0, 10_000, 40_000) // horizon = 40µs
	var b bytes.Buffer
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"dur":40.000,"name":"mpi.write"`) {
		t.Errorf("open span not clamped to horizon:\n%s", out)
	}
	if !strings.Contains(out, `"unfinished":"1"`) {
		t.Errorf("open span lost its unfinished marker:\n%s", out)
	}
}

// WriteChromeWith merges synthetic spans into the export: they get their
// own track tid, ids numbered after the recorded spans, and they extend
// the horizon like recorded spans do.
func TestWriteChromeWithExtra(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	id := tr.Begin("c0", "op", 0)
	tr.End(id)
	extra := []Span{
		{Track: "critical-path", Name: "disk.write", Start: 0, End: 25_000, Tags: []Tag{T("where", "h0")}},
		{Track: "critical-path", Name: "xfer", Start: 25_000, End: 30_000},
	}
	var b bytes.Buffer
	if err := tr.WriteChromeWith(&b, extra); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !json.Valid(b.Bytes()) {
		t.Fatalf("export with extras is not valid JSON:\n%s", out)
	}
	for _, want := range []string{
		`"name":"thread_name","args":{"name":"critical-path"}`,
		`"args":{"id":2,"where":"h0"}`, // first extra numbered after the 1 recorded span
		`"args":{"id":3}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("extra-span export missing %q:\n%s", want, out)
		}
	}
}
