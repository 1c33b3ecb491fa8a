package obs

import (
	"math"
	"math/rand"
	"testing"

	"harl/internal/sim"
	"harl/internal/stats"
)

// advance moves the engine clock to at without any real work — sketches
// roll lazily, so tests drive time through empty scheduled events.
func advance(e *sim.Engine, at sim.Time) {
	e.ScheduleAt(at, func() {})
	e.Run()
}

func TestSketchSetWindowsRollLazily(t *testing.T) {
	e := sim.NewEngine(1)
	ss := NewSketchSet(e, SketchConfig{Window: 10 * sim.Millisecond})
	id := ss.AddServer("h0", "hdd")

	var closed []ServerWindow
	var ends []sim.Time
	ss.OnWindow(func(end sim.Time, w sim.Duration, servers []ServerWindow) {
		if w != 10*sim.Millisecond {
			t.Fatalf("window %v", w)
		}
		ends = append(ends, end)
		closed = append(closed, servers[id])
	})

	// Four ops in window 0, silence through windows 1-2, one op in window 3.
	e.Schedule(2*sim.Millisecond, func() {
		for i := 0; i < 3; i++ {
			ss.ObserveDisk(id, true, sim.Millisecond, 2*sim.Millisecond, 4096)
		}
		ss.ObserveDisk(id, false, 0, sim.Millisecond, 1024)
	})
	e.Schedule(35*sim.Millisecond, func() {
		ss.ObserveDisk(id, true, 0, sim.Millisecond, 2048)
	})
	e.Run()
	advance(e, sim.Time(40*sim.Millisecond))
	ss.Flush()

	if ss.Windows() != 4 || len(closed) != 4 {
		t.Fatalf("windows %d closed %d, want 4", ss.Windows(), len(closed))
	}
	for i, end := range ends {
		want := sim.Time(0).Add(sim.Duration(i+1) * 10 * sim.Millisecond)
		if end != want {
			t.Fatalf("window %d end %v want %v", i, end, want)
		}
	}
	w0 := closed[0]
	if w0.Ops != 4 || w0.WriteOps != 3 || w0.ReadOps != 1 || w0.Bytes != 3*4096+1024 {
		t.Fatalf("window 0 summary %+v", w0)
	}
	// Write total latency 3ms, read 1ms: p99 near 3ms, busy = 7ms service.
	if w0.P99 < 2.8e-3 || w0.P99 > 3.2e-3 {
		t.Fatalf("window 0 p99 %v", w0.P99)
	}
	if math.Abs(w0.Busy-7e-3) > 1e-9 || math.Abs(w0.Util-0.7) > 1e-3 {
		t.Fatalf("window 0 busy %v util %v", w0.Busy, w0.Util)
	}
	// Empty windows report zero ops and zero quantiles.
	if closed[1].Ops != 0 || closed[1].P99 != 0 || closed[2].Ops != 0 {
		t.Fatalf("empty windows not empty: %+v %+v", closed[1], closed[2])
	}
	if closed[3].Ops != 1 || closed[3].Bytes != 2048 {
		t.Fatalf("window 3 summary %+v", closed[3])
	}
}

func TestSketchSetQueueAndCumulative(t *testing.T) {
	e := sim.NewEngine(1)
	ss := NewSketchSet(e, SketchConfig{Window: 10 * sim.Millisecond})
	id := ss.AddServer("s6", "ssd")

	var maxQ []int
	ss.OnWindow(func(_ sim.Time, _ sim.Duration, servers []ServerWindow) {
		maxQ = append(maxQ, servers[id].MaxQueue)
	})

	e.Schedule(sim.Millisecond, func() {
		ss.ObserveQueue(id, 3)
		ss.ObserveQueue(id, 7)
		ss.ObserveQueue(id, 2)
		ss.ObserveDisk(id, true, 0, sim.Millisecond, 100)
	})
	e.Schedule(15*sim.Millisecond, func() {
		ss.ObserveQueue(id, 1)
		ss.ObserveDisk(id, false, sim.Millisecond, sim.Millisecond, 200)
	})
	advance(e, sim.Time(20*sim.Millisecond))
	ss.Flush()

	if len(maxQ) != 2 || maxQ[0] != 7 || maxQ[1] != 1 {
		t.Fatalf("max queue per window %v, want [7 1]", maxQ)
	}
	reads, writes, bytes := ss.ServerOps(id)
	if reads != 1 || writes != 1 || bytes != 300 {
		t.Fatalf("cumulative ops %d/%d bytes %d", reads, writes, bytes)
	}
	if d := ss.ServerDigest(id, true); d.Count() != 1 {
		t.Fatalf("write digest count %d", d.Count())
	}
}

// TestSketchTierDigestMergesPeers checks the per-tier view equals a
// digest that saw every peer's samples directly.
func TestSketchTierDigestMergesPeers(t *testing.T) {
	e := sim.NewEngine(1)
	ss := NewSketchSet(e, SketchConfig{})
	a := ss.AddServer("h0", "hdd")
	b := ss.AddServer("h1", "hdd")
	c := ss.AddServer("s6", "ssd")

	ref := stats.NewQuantileSketch(stats.DefaultSketchAlpha)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		lat := sim.Duration(1+rng.Intn(5000)) * sim.Microsecond
		id := a
		if i%2 == 1 {
			id = b
		}
		ss.ObserveDisk(id, true, 0, lat, 1)
		ref.Add(lat.Seconds())
		// SSD noise that must not leak into the hdd tier digest.
		ss.ObserveDisk(c, true, 0, 100*lat, 1)
	}
	tier := ss.TierDigest("hdd", true)
	if tier.Count() != ref.Count() {
		t.Fatalf("tier count %d want %d", tier.Count(), ref.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, _ := tier.Quantile(q)
		want, _ := ref.Quantile(q)
		if math.Abs(got-want) > 2*stats.DefaultSketchAlpha*want {
			t.Fatalf("tier q%.2f = %v, reference %v", q, got, want)
		}
	}
}

func TestSketchHeatmapAccumulates(t *testing.T) {
	e := sim.NewEngine(1)
	ss := NewSketchSet(e, SketchConfig{})
	a := ss.AddServer("h0", "hdd")
	b := ss.AddServer("h1", "hdd")

	ss.ObserveRegion(0, a, 100, sim.Millisecond)
	ss.ObserveRegion(2, a, 50, sim.Millisecond)
	ss.ObserveRegion(2, b, 200, 2*sim.Millisecond)
	ss.ObserveRegion(-1, b, 999, sim.Millisecond) // unattributed: dropped

	h := ss.Heatmap()
	if h == nil || h.Regions != 3 {
		t.Fatalf("heatmap %+v", h)
	}
	if h.TotalBytes() != 350 || h.ServerBytes(a) != 150 || h.ServerBytes(b) != 200 {
		t.Fatalf("heatmap bytes total=%d a=%d b=%d", h.TotalBytes(), h.ServerBytes(a), h.ServerBytes(b))
	}
	cell := h.Cells[b][2]
	if cell.Ops != 1 || cell.Bytes != 200 || math.Abs(cell.LatSeconds-2e-3) > 1e-9 {
		t.Fatalf("cell %+v", cell)
	}
	if len(h.Cells[a]) != 3 || h.Cells[a][1] != (HeatCell{}) {
		t.Fatalf("row padding broken: %+v", h.Cells[a])
	}
}

func TestSketchNetStatsDeterministicOrder(t *testing.T) {
	e := sim.NewEngine(1)
	ss := NewSketchSet(e, SketchConfig{})
	ss.ObserveNet(ss.NetIndex("h1"), sim.Millisecond, 10)
	ss.ObserveNet(ss.NetIndex("h0"), 2*sim.Millisecond, 20)
	ss.ObserveNet(ss.NetIndex("h1"), 3*sim.Millisecond, 30)

	st := ss.NetStats()
	if len(st) != 2 || st[0].Node != "h1" || st[1].Node != "h0" {
		t.Fatalf("net stats order %+v", st)
	}
	if st[0].Xfers != 2 || st[0].Bytes != 40 || st[1].Xfers != 1 {
		t.Fatalf("net stats %+v", st)
	}
}

func TestSketchSetNilDisabled(t *testing.T) {
	var ss *SketchSet
	if ss.Enabled() || ss.Window() != 0 || ss.NumServers() != 0 || ss.Windows() != 0 {
		t.Fatal("nil sketch set not disabled")
	}
	if id := ss.AddServer("h0", "hdd"); id != -1 {
		t.Fatalf("nil AddServer returned %d", id)
	}
	// Every observation on a nil set must be a no-op, not a panic.
	ss.ObserveDisk(0, true, 0, sim.Millisecond, 1)
	ss.ObserveQueue(0, 3)
	ss.ObserveRegion(1, 0, 10, sim.Millisecond)
	ss.ObserveNet(ss.NetIndex("h0"), sim.Millisecond, 1)
	ss.OnWindow(func(sim.Time, sim.Duration, []ServerWindow) {})
	ss.AttachTracer(nil)
	ss.Flush()
	if ss.Heatmap() != nil || ss.NetStats() != nil || ss.ServerInfos() != nil {
		t.Fatal("nil sketch set leaked data")
	}
}

func TestSketchCounterTracks(t *testing.T) {
	e := sim.NewEngine(1)
	tr := NewTracer(e)
	ss := NewSketchSet(e, SketchConfig{Window: 10 * sim.Millisecond})
	id := ss.AddServer("h0", "hdd")
	ss.AttachTracer(tr)

	e.Schedule(sim.Millisecond, func() {
		ss.ObserveDisk(id, true, 0, 2*sim.Millisecond, 4096)
		ss.ObserveRegion(1, id, 4096, 2*sim.Millisecond)
	})
	advance(e, sim.Time(25*sim.Millisecond))
	ss.Flush()

	var p99, util, heat int
	for _, c := range tr.Spans() {
		if !c.Ctr {
			continue
		}
		switch {
		case c.Track == "sketch" && c.Name == "p99ms.h0":
			p99++
		case c.Track == "sketch" && c.Name == "util.h0":
			util++
		case c.Track == "heatmap/h0" && c.Name == "region1.bytes":
			heat++
			if c.Value != 4096 {
				t.Fatalf("heatmap counter value %v", c.Value)
			}
		}
	}
	// Gauges only for windows with traffic: exactly window 0.
	if p99 != 1 || util != 1 || heat != 1 {
		t.Fatalf("counter samples p99=%d util=%d heat=%d, want 1 each", p99, util, heat)
	}
}

// TestSketchObserveAllocFree pins the sketch feed points: once a
// server's and a node's digests have seen their value range, disk and
// network observations allocate nothing.
func TestSketchObserveAllocFree(t *testing.T) {
	ss := NewSketchSet(sim.NewEngine(1), SketchConfig{})
	id := ss.AddServer("h0", "hdd")
	node := ss.NetIndex("h0")
	feed := func() {
		ss.ObserveDisk(id, true, 50*sim.Microsecond, 2*sim.Millisecond, 64<<10)
		ss.ObserveDisk(id, false, 0, sim.Millisecond, 64<<10)
		ss.ObserveNet(node, 300*sim.Microsecond, 64<<10)
	}
	feed()
	if n := testing.AllocsPerRun(100, feed); n != 0 {
		t.Errorf("warm sketch observations allocate %v times, want 0", n)
	}
}

// BenchmarkSketchObserveDisk is one disk pass's cost in the sketch
// layer: wait, service and total latency into the cumulative and window
// digests.
func BenchmarkSketchObserveDisk(b *testing.B) {
	ss := NewSketchSet(sim.NewEngine(1), SketchConfig{})
	id := ss.AddServer("h0", "hdd")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wait := sim.Duration(i%1000) * sim.Microsecond
		ss.ObserveDisk(id, i&1 == 1, wait, 2*sim.Millisecond+sim.Duration(i%97)*sim.Microsecond, 64<<10)
	}
}
