package telemetry

import (
	"testing"

	"harl/internal/obs"
	"harl/internal/sim"
)

// streamRig is a streaming tracer feeding a telemetry pipeline with a
// latency and an availability objective, the always-on observer path.
func streamRig(t testing.TB, ringSpans int) (*obs.Tracer, *T) {
	t.Helper()
	tel, err := New(Config{RingSpans: ringSpans, Objectives: []Objective{
		{Name: "lat", Kind: KindLatency, Target: 0.99, Limit: 1, Window: sim.Second},
		{Name: "avail", Kind: KindAvailability, Target: 0.99, Window: sim.Second},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return obs.NewStreamTracer(sim.NewEngine(1), tel), tel
}

// streamSpans emits one client operation's worth of spans through every
// tracer entry point, with integer tags.
func streamSpans(tr *obs.Tracer, off int64) {
	op := tr.Begin("c0", "pfs.write", 0, obs.T("file", "f"), obs.TInt("off", off), obs.TInt("bytes", 64<<10))
	at := tr.Begin("c0", "attempt", op, obs.T("op", "write"), obs.T("server", "h0"),
		obs.TInt("attempt", 0), obs.TInt("bytes", 64<<10))
	tr.Emit("h0", "disk.write", at, 0, 0, obs.T("tier", "hdd"), obs.TInt("bytes", 64<<10))
	tr.Counter("h0", "queue", 0, 3)
	tr.Instant("c0", "retry", op, obs.T("server", "h0"), obs.TInt("attempt", 1))
	tr.End(at, obs.T("outcome", "ok"))
	tr.End(op, obs.T("status", "ok"))
}

// TestStreamSpanAllocFree pins the always-on span path: once every ring
// is full, Begin, End, Emit, Counter and Instant with integer tags
// through the streaming tracer, the flight recorder and the SLO engine
// allocate nothing.
func TestStreamSpanAllocFree(t *testing.T) {
	tr, tel := streamRig(t, 4)
	for i := 0; i < 8; i++ {
		streamSpans(tr, int64(i))
	}
	if st := tel.Recorder().Stats(); st.Evicted == 0 {
		t.Fatalf("rings never filled: %+v", st)
	}
	var off int64
	if n := testing.AllocsPerRun(100, func() {
		off += 64 << 10
		streamSpans(tr, off)
	}); n != 0 {
		t.Errorf("streaming a warm operation's spans allocates %v times, want 0", n)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("%d spans dropped", tr.Dropped())
	}
}

// TestWindowDeepCopies checks that a window keeps its spans and tags
// after the ring slots they came from are overwritten.
func TestWindowDeepCopies(t *testing.T) {
	tr, tel := streamRig(t, 2)
	streamSpans(tr, 1)
	win := tel.Recorder().Window()
	before := make([]string, len(win))
	for i := range win {
		off, _ := win[i].Tag("off")
		before[i] = win[i].Name + " off=" + off
	}
	for i := 0; i < 4; i++ {
		streamSpans(tr, 1<<40+int64(i))
	}
	for i := range win {
		off, _ := win[i].Tag("off")
		if got := win[i].Name + " off=" + off; got != before[i] {
			t.Fatalf("window span %d changed from %q to %q after the rings wrapped", i, before[i], got)
		}
	}
}

// BenchmarkStreamSpan is one span's cost through the always-on path:
// streaming Begin and End with integer tags, the flight recorder's ring
// copy and the SLO engine's latency observation.
func BenchmarkStreamSpan(b *testing.B) {
	tr, _ := streamRig(b, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := tr.Begin("c0", "pfs.write", 0, obs.T("file", "f"), obs.TInt("off", int64(i)), obs.TInt("bytes", 64<<10))
		tr.End(id, obs.T("status", "ok"))
	}
}
