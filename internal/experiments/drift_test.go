package experiments

import (
	"strconv"
	"testing"

	"harl/internal/device"
	"harl/internal/monitor"
	"harl/internal/obs"
	"harl/internal/sim"
)

// TestDriftDetectionAndAdvice is the drift scenario's acceptance bar,
// across seeds: the shifted run flags the shifted region within
// (StaleAfter+2) windows of the shift and the advisor agrees with a full
// re-optimization of the post-shift stream; the control run — identical
// but never shifting — stays healthy throughout.
func TestDriftDetectionAndAdvice(t *testing.T) {
	// The three seeded worlds are independent; fan them out on the
	// experiments worker pool, then assert serially on the main
	// goroutine.
	type pair struct{ run, control *DriftRun }
	runs := make([]pair, 3)
	if err := Parallel(0, len(runs), func(i int) error {
		o := QuickOptions()
		o.Seed = int64(i + 1)
		run, err := RunDrift(o, true)
		if err != nil {
			return err
		}
		control, err := RunDrift(o, false)
		if err != nil {
			return err
		}
		runs[i] = pair{run, control}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range runs {
		t.Run("seed"+strconv.Itoa(i+1), func(t *testing.T) {
			run, control := p.run, p.control
			cfg := run.Monitor.Config()
			lat := run.DetectionLatency()
			if lat < 0 {
				t.Fatalf("shift never detected (%d windows)", run.Monitor.Windows())
			}
			if bound := sim.Duration(monitor.StaleAfter+2) * cfg.Window; lat > bound {
				t.Errorf("detection latency %v exceeds bound %v", lat, bound)
			}
			if run.Monitor.Stale(0) {
				t.Error("clean region flagged stale")
			}
			adv, ok := run.Advice()
			if !ok {
				t.Fatalf("stale region produced no advice: %+v", run.Report.Advice)
			}
			if adv.To != run.OraclePair {
				t.Errorf("advisor chose %v, oracle re-optimization %v", adv.To, run.OraclePair)
			}
			if adv.From == adv.To {
				t.Errorf("advice recommends the planned pair %v", adv.From)
			}
			if adv.Gain <= 0 {
				t.Errorf("advice gain %v not positive", adv.Gain)
			}

			if !control.Report.Healthy() {
				t.Errorf("control run flagged stale: %+v", control.Report.Regions)
			}
			if len(control.Report.Advice) != 0 {
				t.Errorf("control run got advice: %+v", control.Report.Advice)
			}
		})
	}
}

// TestDriftMonitorMatchesRegistry cross-checks the monitor's books
// against the obs registry on the same run: per-region byte totals equal
// the mpi_region_*_bytes_total counters exactly, and the tier counters
// account for every acknowledged logical byte exactly once.
func TestDriftMonitorMatchesRegistry(t *testing.T) {
	o := QuickOptions()
	run, err := RunDrift(o, true)
	if err != nil {
		t.Fatal(err)
	}
	m, reg := run.Monitor, run.Metrics
	var totalWrites int64
	for i := 0; i < m.Regions(); i++ {
		labels := []obs.Tag{obs.T("file", "drift"), obs.T("region", strconv.Itoa(i))}
		rb, wb := m.RegionBytes(i)
		// The registry also counted the unmonitored warm-up; the monitor
		// must match it exactly from its attach point on.
		if want := reg.CounterValue("mpi_region_write_bytes_total", labels...) - run.BaselineWrites[i]; wb != want {
			t.Errorf("region %d: monitor write bytes %d, registry delta %d", i, wb, want)
		}
		if want := reg.CounterValue("mpi_region_read_bytes_total", labels...) - run.BaselineReads[i]; rb != want {
			t.Errorf("region %d: monitor read bytes %d, registry delta %d", i, rb, want)
		}
		totalWrites += wb
	}
	// The monitor was attached after the (unmonitored) warm-up, so its
	// region totals are exactly the bytes the monitored phases issued.
	if totalWrites != run.Bytes {
		t.Errorf("monitor region write bytes %d, workload acknowledged %d", totalWrites, run.Bytes)
	}
	// Every logical write byte was served by exactly one tier disk pass.
	tierWrites := m.TierBytes(device.HDD, device.Write) + m.TierBytes(device.SSD, device.Write)
	if tierWrites != totalWrites {
		t.Errorf("tier write bytes %d, region write bytes %d", tierWrites, totalWrites)
	}
	// The drift gauges surfaced on the trace's monitor track.
	var counters int
	for _, sp := range run.Tracer.Spans() {
		if sp.Ctr && sp.Track == "monitor" {
			counters++
		}
	}
	if counters == 0 {
		t.Error("no drift counter samples on the trace")
	}
}

// TestFigDriftQuick runs the figure end to end at test scale.
func TestFigDriftQuick(t *testing.T) {
	tab, err := FigDrift(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "drift", tab)
	lat, ok := tab.Get("shift", "detect ms")
	if !ok || lat <= 0 {
		t.Errorf("shift row detect ms = %v, %v", lat, ok)
	}
	gain, ok := tab.Get("shift", "advice gain %")
	if !ok || gain <= 0 {
		t.Errorf("shift row advice gain = %v, %v", gain, ok)
	}
	stale, ok := tab.Get("control", "stale regions")
	if !ok || stale != 0 {
		t.Errorf("control row stale regions = %v, %v", stale, ok)
	}
}
