package diagnose

import (
	"strings"
	"testing"

	"harl/internal/device"
	"harl/internal/faults"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/pfs"
	"harl/internal/sim"
)

const win = 10 * sim.Millisecond

// feed builds a sketch set with six hdd peers and two ssd peers and a
// detector over it, returning both plus the engine.
func feed(t *testing.T, cfg Config) (*sim.Engine, *obs.SketchSet, *Detector) {
	t.Helper()
	e := sim.NewEngine(1)
	ss := obs.NewSketchSet(e, obs.SketchConfig{Window: win})
	for i := 0; i < 6; i++ {
		ss.AddServer([]string{"h0", "h1", "h2", "h3", "h4", "h5"}[i], "hdd")
	}
	ss.AddServer("s6", "ssd")
	ss.AddServer("s7", "ssd")
	return e, ss, NewDetector(ss, cfg)
}

// window schedules 16 ops on every server inside window w, with server
// "slow" served at factor× the base latency.
func window(e *sim.Engine, ss *obs.SketchSet, w int, slow int, factor float64) {
	at := sim.Duration(w)*win + sim.Millisecond
	e.Schedule(at, func() {
		for id := 0; id < 8; id++ {
			base := sim.Millisecond
			if id >= 6 {
				base = 100 * sim.Microsecond // ssd tier is just faster
			}
			lat := base
			if id == slow {
				lat = sim.Duration(float64(base) * factor)
			}
			for k := 0; k < 16; k++ {
				ss.ObserveDisk(id, true, 0, lat, 4096)
			}
		}
	})
}

func TestDetectorFlagsConfirmsAndClears(t *testing.T) {
	e, ss, d := feed(t, Config{})

	// Windows 0-1 healthy, 2-5 h1 six-times slow, 6-9 healthy again.
	for w := 0; w < 10; w++ {
		slow := -1
		if w >= 2 && w <= 5 {
			slow = 1
		}
		window(e, ss, w, slow, 6)
	}
	e.Run()
	d.Finish()

	eps := d.Episodes()
	if len(eps) != 1 {
		t.Fatalf("episodes %+v, want exactly 1", eps)
	}
	ep := eps[0]
	if ep.Server != "h1" || ep.Tier != "hdd" || ep.ServerID != 1 {
		t.Fatalf("flagged %s/%s id %d", ep.Server, ep.Tier, ep.ServerID)
	}
	// First outlier window is window 2 → onset = its start = 20ms;
	// confirmation after flagAfter=2 windows → end of window 3 = 40ms.
	if ep.Onset != sim.Time(20*sim.Millisecond) {
		t.Fatalf("onset %v, want 20ms", ep.Onset)
	}
	if ep.Confirmed != sim.Time(40*sim.Millisecond) {
		t.Fatalf("confirmed %v, want 40ms", ep.Confirmed)
	}
	// Healthy again from window 6; cleared after clearAfter=2 scored
	// healthy windows → end of window 7 = 80ms.
	if ep.Active() || ep.Cleared != sim.Time(80*sim.Millisecond) {
		t.Fatalf("cleared %v active=%v, want 80ms", ep.Cleared, ep.Active())
	}
	if ep.PeakRatio < 3 || ep.Windows != 4 {
		t.Fatalf("peak ratio %v windows %d", ep.PeakRatio, ep.Windows)
	}
}

func TestDetectorHysteresisIgnoresOneOff(t *testing.T) {
	e, ss, d := feed(t, Config{})
	// A single outlier window must not confirm (flagAfter 2).
	for w := 0; w < 5; w++ {
		slow := -1
		if w == 2 {
			slow = 3
		}
		window(e, ss, w, slow, 8)
	}
	e.Run()
	d.Finish()
	if eps := d.Episodes(); len(eps) != 0 {
		t.Fatalf("one-off window confirmed an episode: %+v", eps)
	}
}

func TestDetectorTwoPeerTierRatioFallback(t *testing.T) {
	e, ss, d := feed(t, Config{})
	// Straggle s6 (ssd tier, only two peers — MAD is meaningless there,
	// the ratio fallback must still catch a 6x slowdown).
	for w := 0; w < 4; w++ {
		window(e, ss, w, 6, 6)
	}
	e.Run()
	d.Finish()
	eps := d.Episodes()
	if len(eps) != 1 || eps[0].Server != "s6" || eps[0].Tier != "ssd" {
		t.Fatalf("episodes %+v, want s6/ssd", eps)
	}
}

func TestDetectorSparseWindowsDontScore(t *testing.T) {
	e, ss, d := feed(t, Config{MinOps: 32})
	// 16 ops per window is below MinOps: nothing is ever scored.
	for w := 0; w < 6; w++ {
		window(e, ss, w, 1, 10)
	}
	e.Run()
	d.Finish()
	if eps := d.Episodes(); len(eps) != 0 {
		t.Fatalf("sparse windows scored: %+v", eps)
	}
}

// faultLog applies a schedule against a real file system so the log
// carries properly fired events.
func faultLog(t *testing.T, s faults.Schedule) *faults.Log {
	t.Helper()
	e := sim.NewEngine(1)
	net := netsim.MustNew(e, netsim.GigabitEthernet())
	profiles := make([]device.Profile, 0, 8)
	for i := 0; i < 6; i++ {
		profiles = append(profiles, device.DefaultHDD())
	}
	for i := 0; i < 2; i++ {
		profiles = append(profiles, device.DefaultSSD())
	}
	fs := pfs.MustNew(e, net, profiles)
	log := s.Apply(e, fs)
	e.Run()
	return log
}

func TestClassifyStraggleBeatsOtherCauses(t *testing.T) {
	e, ss, d := feed(t, Config{})
	for w := 0; w < 6; w++ {
		slow := -1
		if w >= 2 {
			slow = 1
		}
		window(e, ss, w, slow, 6)
	}
	e.Run()

	log := faultLog(t, faults.Schedule{
		{At: 21 * sim.Millisecond, Kind: faults.Straggle, Server: 1, Factor: 6},
		{At: 25 * sim.Millisecond, Kind: faults.Crash, Server: 1},
		{At: 30 * sim.Millisecond, Kind: faults.Recover, Server: 1},
	})
	r := d.Diagnose(Correlates{Faults: log, BlameShare: map[string]float64{"h1": 0.4}})
	if r.Clean() || len(r.Findings) != 1 {
		t.Fatalf("findings %+v", r.Findings)
	}
	f := r.Findings[0]
	if f.Cause != CauseStraggle {
		t.Fatalf("cause %s, want straggle", f.Cause)
	}
	var sawFault, sawBlame bool
	for _, ev := range f.Evidence {
		if strings.Contains(ev, "straggle s1") {
			sawFault = true
		}
		if strings.Contains(ev, "critpath") && strings.Contains(ev, "40%") {
			sawBlame = true
		}
	}
	if !sawFault || !sawBlame {
		t.Fatalf("evidence %v", f.Evidence)
	}
}

func TestClassifyCrashRecoveryAndFlaky(t *testing.T) {
	mk := func(s faults.Schedule, cor Correlates) Finding {
		e, ss, d := feed(t, Config{})
		for w := 0; w < 6; w++ {
			slow := -1
			if w >= 2 {
				slow = 2
			}
			window(e, ss, w, slow, 6)
		}
		e.Run()
		cor.Faults = faultLog(t, s)
		r := d.Diagnose(cor)
		if len(r.Findings) != 1 {
			t.Fatalf("findings %+v", r.Findings)
		}
		return r.Findings[0]
	}

	f := mk(faults.Schedule{
		{At: 22 * sim.Millisecond, Kind: faults.Crash, Server: 2},
		{At: 40 * sim.Millisecond, Kind: faults.Recover, Server: 2},
	}, Correlates{CatchUps: 3, Promotions: 1})
	if f.Cause != CauseCrashRecovery {
		t.Fatalf("cause %s, want crash-recovery", f.Cause)
	}
	if !strings.Contains(strings.Join(f.Evidence, "\n"), "catch-up") {
		t.Fatalf("no repl evidence: %v", f.Evidence)
	}

	f = mk(faults.Schedule{
		{At: 22 * sim.Millisecond, Kind: faults.Flaky, Server: 2, ErrP: 0.2, DropP: 0.1},
		{At: 50 * sim.Millisecond, Kind: faults.Clear, Server: 2},
	}, Correlates{})
	if f.Cause != CauseFlaky {
		t.Fatalf("cause %s, want flaky", f.Cause)
	}
}

func TestClassifyLoadSkewAndPlanDrift(t *testing.T) {
	// No faults; h1 slow AND carrying most of the bytes → load skew.
	e, ss, d := feed(t, Config{})
	for w := 0; w < 6; w++ {
		slow := -1
		if w >= 2 {
			slow = 1
		}
		window(e, ss, w, slow, 6)
	}
	e.Schedule(sim.Millisecond, func() {
		ss.ObserveRegion(0, 1, 1<<20, sim.Millisecond)
		ss.ObserveRegion(1, 0, 4096, sim.Millisecond)
	})
	e.Run()
	r := d.Diagnose(Correlates{})
	if len(r.Findings) != 1 || r.Findings[0].Cause != CauseLoadSkew {
		t.Fatalf("findings %+v, want load-skew", r.Findings)
	}
	if !strings.Contains(r.Findings[0].Evidence[0], "heatmap") {
		t.Fatalf("evidence %v", r.Findings[0].Evidence)
	}

	// Same latencies, no heatmap skew, monitor staleness → plan drift.
	e2, ss2, d2 := feed(t, Config{})
	for w := 0; w < 6; w++ {
		slow := -1
		if w >= 2 {
			slow = 1
		}
		window(e2, ss2, w, slow, 6)
	}
	e2.Run()
	r2 := d2.Diagnose(Correlates{StaleRegions: []int{2, 5}})
	if len(r2.Findings) != 1 || r2.Findings[0].Cause != CausePlanDrift {
		t.Fatalf("findings %+v, want plan-drift", r2.Findings)
	}

	// Nothing correlates at all → unknown.
	e3, ss3, d3 := feed(t, Config{})
	for w := 0; w < 6; w++ {
		slow := -1
		if w >= 2 {
			slow = 1
		}
		window(e3, ss3, w, slow, 6)
	}
	e3.Run()
	r3 := d3.Diagnose(Correlates{})
	if len(r3.Findings) != 1 || r3.Findings[0].Cause != CauseUnknown {
		t.Fatalf("findings %+v, want unknown", r3.Findings)
	}
}

func TestReportRenderAndClean(t *testing.T) {
	e, ss, d := feed(t, Config{})
	for w := 0; w < 6; w++ {
		slow := -1
		if w >= 2 {
			slow = 1
		}
		window(e, ss, w, slow, 6)
	}
	e.Schedule(sim.Millisecond, func() {
		ss.ObserveRegion(0, 1, 1<<20, sim.Millisecond)
		ss.ObserveRegion(1, 0, 4096, sim.Millisecond)
	})
	e.Run()
	log := faultLog(t, faults.Schedule{
		{At: 21 * sim.Millisecond, Kind: faults.Straggle, Server: 1, Factor: 6},
	})
	out := d.Diagnose(Correlates{Faults: log}).Render()
	for _, want := range []string{"doctor: 1 finding(s)", "[straggle] h1 (hdd)", "evidence: fault log", "skew heatmap", "h1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}

	// A clean run renders clean.
	e2, ss2, d2 := feed(t, Config{})
	for w := 0; w < 6; w++ {
		window(e2, ss2, w, -1, 1)
	}
	e2.Run()
	r2 := d2.Diagnose(Correlates{})
	if !r2.Clean() {
		t.Fatalf("clean run has findings: %+v", r2.Findings)
	}
	if !strings.Contains(r2.Render(), "no anomalies") {
		t.Fatalf("clean render:\n%s", r2.Render())
	}
}

func TestDetectorDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		e, ss, d := feed(t, Config{})
		for w := 0; w < 8; w++ {
			slow := -1
			if w >= 3 && w <= 5 {
				slow = 4
			}
			window(e, ss, w, slow, 5)
		}
		e.Run()
		return d.Diagnose(Correlates{}).Render()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("reports diverged:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}
