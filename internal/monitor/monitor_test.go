package monitor

import (
	"bytes"
	"strings"
	"testing"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/trace"
)

// testParams mirrors the calibrated-looking parameter set the harl tests
// use: 6 HServers + 2 SServers.
func testParams() cost.Params {
	return cost.Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []cost.TierParams{
			{Name: "hserver", Count: 6,
				Read:  cost.DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)},
				Write: cost.DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)}},
			{Name: "sserver", Count: 2,
				Read:  cost.DeviceFit{AlphaMin: 6e-4, AlphaMax: 1.2e-3, Beta: 1.0 / (400 << 20)},
				Write: cost.DeviceFit{AlphaMin: 8e-4, AlphaMax: 1.6e-3, Beta: 1.0 / (200 << 20)}},
		},
	}
}

// testFingerprint freezes a two-region plan: uniform 64K writes in
// region 0, uniform 1M writes in region 1.
func testFingerprint() *harl.PlanFingerprint {
	u64 := [9]float64{}
	u1m := [9]float64{}
	for i := range u64 {
		u64[i] = 64 << 10
		u1m[i] = 1 << 20
	}
	return &harl.PlanFingerprint{
		Threshold: 1,
		Regions: []harl.RegionFingerprint{
			{Offset: 0, End: 64 << 20, H: 64 << 10, S: 256 << 10, Requests: 256,
				MeanSize: 64 << 10, CV: 0, WriteMix: 1, SizeDeciles: u64},
			{Offset: 64 << 20, End: 128 << 20, H: 512 << 10, S: 512 << 10, Requests: 64,
				MeanSize: 1 << 20, CV: 0, WriteMix: 1, SizeDeciles: u1m},
		},
	}
}

// testConfig shrinks windows and gates for unit tests.
func testConfig() Config {
	return Config{
		Window:        10 * sim.Millisecond,
		MinRequests:   4,
		ReservoirSize: 64,
	}
}

// feed schedules n same-size region writes evenly across one window and
// returns the window's end time.
func feed(e *sim.Engine, m *Monitor, window int, region int, size int64, n int) {
	w := 10 * sim.Millisecond
	start := sim.Time(0).Add(sim.Duration(window) * w)
	for i := 0; i < n; i++ {
		at := start.Add(sim.Duration(i) * w / sim.Duration(n+1))
		off := int64(i) * size
		e.ScheduleAt(at, func() { m.Observe(device.Write, region, off, size) })
	}
}

// settle schedules a final no-op past the last fed window so Flush can
// close it, then runs the engine.
func settle(e *sim.Engine, m *Monitor, windows int) {
	e.ScheduleAt(sim.Time(0).Add(sim.Duration(windows)*10*sim.Millisecond), func() {})
	e.Run()
	m.Flush()
}

func TestNilMonitorInertZeroAlloc(t *testing.T) {
	var m *Monitor
	m.Observe(device.Write, 0, 0, 4096)
	m.ObserveTier(device.SSD, device.Read, 4096)
	m.AttachTracer(nil)
	m.Flush()
	if !m.Healthy() || m.Enabled() || m.Windows() != 0 || m.Regions() != 0 {
		t.Error("nil monitor is not inert")
	}
	if r, w := m.RegionBytes(0); r != 0 || w != 0 {
		t.Error("nil monitor reports bytes")
	}
	rep := m.Report("f")
	if !rep.Healthy() || len(rep.Regions) != 0 {
		t.Error("nil monitor report not empty")
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Observe(device.Write, 0, 0, 4096)
		m.ObserveTier(device.HDD, device.Write, 4096)
	}); n != 0 {
		t.Errorf("nil monitor allocates %v per observation", n)
	}
}

func TestMonitorMatchingWorkloadStaysFresh(t *testing.T) {
	e := sim.NewEngine(1)
	m, err := New(e, testFingerprint(), testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 6; w++ {
		feed(e, m, w, 0, 64<<10, 8)
		feed(e, m, w, 1, 1<<20, 8)
	}
	settle(e, m, 6)
	if !m.Healthy() {
		t.Error("matching workload flagged stale")
	}
	if m.Windows() < 6 {
		t.Errorf("only %d windows closed", m.Windows())
	}
	rep := m.Report("f")
	for _, r := range rep.Regions {
		if !r.Scored {
			t.Errorf("region %d never scored", r.Region)
		}
		if r.Scores.Max() >= 1 {
			t.Errorf("region %d drifted on its own plan: %+v", r.Region, r.Scores)
		}
	}
	if len(rep.Advice) != 0 {
		t.Errorf("fresh layout got advice: %+v", rep.Advice)
	}
}

func TestMonitorHysteresis(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := testConfig()
	m, err := New(e, testFingerprint(), testParams(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: two clean windows. Phase 2: region 1 shifts from 1M to
	// 64K requests. Phase 3: back to plan.
	type check struct {
		window int
		stale  bool
	}
	for w := 0; w < 12; w++ {
		feed(e, m, w, 0, 64<<10, 8)
		size := int64(1 << 20)
		if w >= 2 && w < 7 {
			size = 64 << 10
		}
		feed(e, m, w, 1, size, 8)
	}
	// One drifted window must not flag (StaleAfter 2): check after
	// window 2 closes (first boundary after its last observation is
	// handled lazily, so probe just before window 3's close).
	e.ScheduleAt(sim.Time(0).Add(3*10*sim.Millisecond), func() {
		m.Flush()
		if m.Stale(1) {
			t.Error("one drifted window flagged the region (no hysteresis)")
		}
	})
	// After windows 2 and 3 both drift, the flag must be up.
	e.ScheduleAt(sim.Time(0).Add(5*10*sim.Millisecond), func() {
		m.Flush()
		if !m.Stale(1) {
			t.Error("two consecutive drifted windows did not flag the region")
		}
		if m.Stale(0) {
			t.Error("control region flagged")
		}
	})
	// One clean window (window 7) must not unflag (FreshAfter 2); probe
	// mid-window 8, before its close can complete the fresh streak...
	e.ScheduleAt(sim.Time(0).Add(85*sim.Millisecond), func() {
		m.Flush()
		if !m.Stale(1) {
			t.Error("one clean window unflagged the region (no hysteresis)")
		}
	})
	settle(e, m, 12)
	// ...but two consecutive clean windows must.
	if m.Stale(1) {
		t.Error("region stayed stale after recovery")
	}
	if !m.Healthy() {
		t.Error("monitor unhealthy after recovery")
	}
}

func TestMonitorSparseWindowsLeaveStreaksAlone(t *testing.T) {
	e := sim.NewEngine(1)
	m, err := New(e, testFingerprint(), testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Drifted but sparse: below MinRequests (4), the windows must not
	// accumulate a stale streak no matter how many pass.
	for w := 0; w < 8; w++ {
		feed(e, m, w, 1, 64<<10, 2)
	}
	settle(e, m, 8)
	if m.Stale(1) {
		t.Error("sparse windows flagged the region")
	}
	rep := m.Report("f")
	if rep.Regions[1].Scored {
		t.Error("sparse windows were scored")
	}
}

func TestMonitorTotalsAndTiers(t *testing.T) {
	e := sim.NewEngine(1)
	m, err := New(e, testFingerprint(), testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.ScheduleAt(1, func() {
		m.Observe(device.Write, 0, 0, 1000)
		m.Observe(device.Write, 0, 1000, 500)
		m.Observe(device.Read, 0, 0, 250)
		m.Observe(device.Write, 1, 0, 4096)
	})
	e.Run()
	if r, w := m.RegionBytes(0); r != 250 || w != 1500 {
		t.Errorf("region 0 bytes (%d, %d), want (250, 1500)", r, w)
	}
	if r, w := m.RegionOps(0); r != 1 || w != 2 {
		t.Errorf("region 0 ops (%d, %d), want (1, 2)", r, w)
	}
	if _, w := m.RegionBytes(1); w != 4096 {
		t.Errorf("region 1 write bytes %d, want 4096", w)
	}
	m.ObserveTier(device.HDD, device.Write, 100)
	m.ObserveTier(device.SSD, device.Write, 200)
	m.ObserveTier(device.SSD, device.Write, 50)
	m.ObserveTier(device.SSD, device.Read, 7)
	if got := m.TierBytes(device.SSD, device.Write); got != 250 {
		t.Errorf("ssd write bytes %d, want 250", got)
	}
	if got := m.TierBytes(device.HDD, device.Write); got != 100 {
		t.Errorf("hdd write bytes %d, want 100", got)
	}
	if got := m.TierBytes(device.SSD, device.Read); got != 7 {
		t.Errorf("ssd read bytes %d, want 7", got)
	}
}

func TestMonitorAdviceMatchesOptimizer(t *testing.T) {
	e := sim.NewEngine(1)
	params := testParams()
	m, err := New(e, testFingerprint(), params, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Region 1 planned for 1M requests receives 64K requests for long
	// enough to go stale.
	for w := 0; w < 5; w++ {
		feed(e, m, w, 1, 64<<10, 16)
	}
	settle(e, m, 5)
	rep := m.Report("app")
	if !rep.Regions[1].Stale {
		t.Fatal("shifted region not stale")
	}
	if len(rep.Advice) != 1 {
		t.Fatalf("got %d advice entries, want 1: %+v", len(rep.Advice), rep.Advice)
	}
	adv := rep.Advice[0]
	if adv.Region != 1 || adv.File != "app.r1" {
		t.Errorf("advice targets %s (r%d), want app.r1", adv.File, adv.Region)
	}
	if adv.From != (harl.StripePair{H: 512 << 10, S: 512 << 10}) {
		t.Errorf("advice From = %v, want planned pair", adv.From)
	}
	if adv.Gain <= 0 || adv.BestCost >= adv.CurCost {
		t.Errorf("advice gain %v (cur %v best %v) not positive", adv.Gain, adv.CurCost, adv.BestCost)
	}

	// The recommended pair must be exactly what Algorithm 2 chooses on
	// the same window sample.
	var recs []trace.Record
	var sum float64
	for _, s := range m.regions[1].lastSample {
		recs = append(recs, trace.Record{Op: s.Op, Offset: s.Off, Size: s.Size, End: 1})
		sum += float64(s.Size)
	}
	opt := harl.Optimizer{Params: params}
	want, _ := opt.OptimizeRegion(recs, 0, sum/float64(len(recs)))
	if adv.To != want {
		t.Errorf("advice To = %v, optimizer chooses %v", adv.To, want)
	}

	// The report renders the advice.
	var b bytes.Buffer
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, wantStr := range []string{"STALE", "advice: restripe app.r1"} {
		if !strings.Contains(b.String(), wantStr) {
			t.Errorf("report text missing %q:\n%s", wantStr, b.String())
		}
	}
}

func TestMonitorCounterEmission(t *testing.T) {
	e := sim.NewEngine(1)
	tr := obs.NewTracer(e)
	m, err := New(e, testFingerprint(), testParams(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.AttachTracer(tr)
	for w := 0; w < 3; w++ {
		feed(e, m, w, 0, 64<<10, 8)
	}
	settle(e, m, 3)
	var drift, stale int
	for _, sp := range tr.Spans() {
		if !sp.Ctr || sp.Track != "monitor" {
			t.Errorf("unexpected span %+v on monitor path", sp)
			continue
		}
		switch sp.Name {
		case "drift.r0":
			drift++
		case "stale.r0":
			stale++
			if sp.Value != 0 {
				t.Errorf("fresh region emitted stale=%v", sp.Value)
			}
		}
	}
	if drift == 0 || stale == 0 {
		t.Errorf("emitted %d drift and %d stale samples, want both > 0", drift, stale)
	}
}

func TestMonitorRejectsBadInputs(t *testing.T) {
	e := sim.NewEngine(1)
	if _, err := New(nil, testFingerprint(), testParams(), Config{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := New(e, nil, testParams(), Config{}); err == nil {
		t.Error("nil fingerprint accepted")
	}
	if _, err := New(e, testFingerprint(), testParams(), Config{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	m, err := New(e, testFingerprint(), testParams(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range region did not panic")
		}
	}()
	m.Observe(device.Write, 99, 0, 1)
}
