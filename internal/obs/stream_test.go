package obs

import (
	"bytes"
	"strings"
	"testing"

	"harl/internal/sim"
)

// collectSink retains a copy of every finalized span a streaming tracer
// delivers, in delivery order.
type collectSink struct{ got []Span }

func (c *collectSink) OnSpan(s *Span) {
	cp := *s
	cp.Tags = append([]Tag(nil), s.Tags...)
	c.got = append(c.got, cp)
}

// driveTrace runs the same instrumented scenario against any tracer:
// nested spans, an instant, a retroactive emit, and a counter sample.
func driveTrace(e *sim.Engine, tr *Tracer) {
	root := tr.Begin("cn0", "op", 0, T("file", "f"))
	e.Schedule(sim.Millisecond, func() {
		inner := tr.Begin("srv0", "disk", root, TInt("bytes", 4096))
		tr.Instant("srv0", "fault.crash", 0, T("kind", "crash"))
		e.Schedule(2*sim.Millisecond, func() {
			tr.End(inner, T("status", "ok"))
			tr.Emit("net", "xfer", root, sim.Time(0), e.Now())
			tr.Counter("srv0", "queue", e.Now(), 3)
			tr.End(root, T("status", "ok"))
		})
	})
	e.Run()
}

func TestStreamTracerMatchesRetaining(t *testing.T) {
	// Retaining reference run.
	re := sim.NewEngine(1)
	rt := NewTracer(re)
	driveTrace(re, rt)

	// Streaming run of the same scenario.
	se := sim.NewEngine(1)
	sink := &collectSink{}
	st := NewStreamTracer(se, sink)
	driveTrace(se, st)

	if !st.Streaming() || rt.Streaming() {
		t.Fatal("Streaming() misreports tracer mode")
	}
	if st.Len() != 0 || st.Spans() != nil {
		t.Fatalf("streaming tracer retained %d spans", st.Len())
	}
	if len(st.open) != 0 {
		t.Fatalf("%d spans left open after run", len(st.open))
	}
	want := rt.Spans()
	if len(sink.got) != len(want) {
		t.Fatalf("sink got %d spans, retaining recorded %d", len(sink.got), len(want))
	}
	// Same span set with identical IDs, regardless of delivery order.
	byID := make(map[SpanID]Span, len(sink.got))
	for _, s := range sink.got {
		byID[s.ID] = s
	}
	for _, w := range want {
		g, ok := byID[w.ID]
		if !ok {
			t.Fatalf("span %d (%s) never delivered", w.ID, w.Name)
		}
		if g.Name != w.Name || g.Track != w.Track || g.Parent != w.Parent ||
			g.Start != w.Start || g.End != w.End || g.Inst != w.Inst ||
			g.Ctr != w.Ctr || g.Value != w.Value || len(g.Tags) != len(w.Tags) {
			t.Fatalf("span %d diverged: stream=%+v retain=%+v", w.ID, g, w)
		}
		for i := range w.Tags {
			if g.Tags[i].Key != w.Tags[i].Key || g.Tags[i].Value() != w.Tags[i].Value() {
				t.Fatalf("span %d tag %d: stream %v, retain %v", w.ID, i, g.Tags[i], w.Tags[i])
			}
		}
	}
}

func TestStreamTracerDropsBogusEnd(t *testing.T) {
	e := sim.NewEngine(1)
	sink := &collectSink{}
	tr := NewStreamTracer(e, sink)
	id := tr.Begin("cn0", "op", 0)
	tr.End(id)
	tr.End(id) // double End: unknown by now
	tr.End(999)
	if tr.Dropped() != 2 {
		t.Fatalf("dropped=%d, want 2", tr.Dropped())
	}
	tr.End(0) // span 0 stays a silent no-op
	if tr.Dropped() != 2 {
		t.Fatal("End(0) counted as dropped")
	}
	if len(sink.got) != 1 {
		t.Fatalf("sink got %d spans, want 1", len(sink.got))
	}
}

func TestWriteChromeSpansMatchesMethod(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	driveTrace(e, tr)
	extra := []Span{{Track: "critpath", Name: "hl", Start: 0, End: sim.Time(5)}}

	var viaMethod, viaFunc bytes.Buffer
	if err := tr.WriteChromeWith(&viaMethod, extra); err != nil {
		t.Fatal(err)
	}
	if err := WriteChromeSpans(&viaFunc, tr.Spans(), extra); err != nil {
		t.Fatal(err)
	}
	if viaMethod.String() != viaFunc.String() {
		t.Fatal("WriteChromeSpans output diverged from WriteChromeWith")
	}
}

func TestWritePromGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", T("op", "write"), T("tier", "ssd")).Add(7)
	r.Counter("ops_total", T("op", "read"), T("tier", "ssd")).Add(3)
	r.Gauge("drift_score").Set(0.25)
	h := r.Histogram("latency_seconds", 0, 1, 4)
	h.Observe(0.1)
	h.Observe(0.1)
	h.Observe(0.9)

	want := strings.Join([]string{
		`# virtual time 1.5ms`,
		`# TYPE drift_score gauge`,
		`drift_score 0.25`,
		`# TYPE latency_seconds histogram`,
		`latency_seconds_bucket{le="0.25"} 2`,
		`latency_seconds_bucket{le="0.5"} 2`,
		`latency_seconds_bucket{le="0.75"} 2`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="+Inf"} 3`,
		`latency_seconds_count 3`,
		`# TYPE ops_total counter`,
		`ops_total{op="read",tier="ssd"} 3`,
		`ops_total{op="write",tier="ssd"} 7`,
		``,
	}, "\n")

	var a, b bytes.Buffer
	if err := r.WriteProm(&a, sim.Time(1500*sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if a.String() != want {
		t.Fatalf("prom export:\n%s\nwant:\n%s", a.String(), want)
	}
	if err := r.WriteProm(&b, sim.Time(1500*sim.Microsecond)); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("prom export not deterministic across calls")
	}
}

func TestWritePromNilAndEscaping(t *testing.T) {
	var nilReg *Registry
	var buf bytes.Buffer
	if err := nilReg.WriteProm(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil registry export: %q", buf.String())
	}

	r := NewRegistry()
	r.Counter("weird_total", T("path", `a"b\c`)).Inc()
	buf.Reset()
	if err := r.WriteProm(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `weird_total{path="a\"b\\c"} 1`) {
		t.Fatalf("label escaping broken:\n%s", buf.String())
	}
}
