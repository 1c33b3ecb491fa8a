package experiments

import (
	"strings"
	"testing"

	"harl/internal/diagnose"
	"harl/internal/sim"
)

// The ISSUE's headline acceptance: a straggle seeded mid-run on one
// server is detected within two windows, named exactly (server, tier,
// onset) and classified `straggle` — deterministically over seeds 1-3.
func TestDoctorNamesSeededStragglerSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		o := QuickOptions()
		o.Seed = seed
		run, err := RunDoctor(o, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if run.Acked == 0 {
			t.Fatalf("seed %d: no traffic acked — acceptance is vacuous", seed)
		}
		if run.Report.Clean() {
			t.Fatalf("seed %d: straggler run diagnosed clean\n%s", seed, run.Report.Render())
		}
		top := run.Report.Findings[0]
		if top.Cause != diagnose.CauseStraggle {
			t.Errorf("seed %d: top finding classified %q, want %q", seed, top.Cause, diagnose.CauseStraggle)
		}
		if top.Server != run.Victim || top.Tier != run.VictimTier {
			t.Errorf("seed %d: top finding names %s (%s), want %s (%s)",
				seed, top.Server, top.Tier, run.Victim, run.VictimTier)
		}
		onset := top.Onset.Sub(sim.Time(0))
		if diff := onset - run.StraggleAt; diff < -run.Window || diff > run.Window {
			t.Errorf("seed %d: onset %v, want within one window of injection %v", seed, onset, run.StraggleAt)
		}
		if seed == 1 {
			pinNanos(t, "doctor_detect", secondsToNanos(run.DetectSeconds), 64_000_000)
		}
		if run.DetectSeconds < 0 {
			t.Errorf("seed %d: straggler never confirmed", seed)
		} else if limit := (2 * run.Window).Seconds(); run.DetectSeconds > limit+1e-9 {
			t.Errorf("seed %d: detected in %.3fs, want within two windows (%.3fs)", seed, run.DetectSeconds, limit)
		}
		if top.Active() {
			t.Errorf("seed %d: episode still active after the bout lifted at %v", seed, run.StraggleEnd)
		}
		cited := false
		for _, ev := range top.Evidence {
			if strings.Contains(ev, "straggle") {
				cited = true
			}
		}
		if !cited {
			t.Errorf("seed %d: finding cites no straggle fault-log evidence: %v", seed, top.Evidence)
		}
		if run.Report.Heatmap == nil || run.Report.Heatmap.TotalBytes() != run.AckedBytes {
			t.Errorf("seed %d: heatmap does not account all acked bytes", seed)
		}
	}
}

// The fault-free control must come back clean on the same seeds the
// straggler acceptance uses — the detector has no false-positive floor.
func TestDoctorControlCleanSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		o := QuickOptions()
		o.Seed = seed
		run, err := RunDoctor(o, false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if run.Acked == 0 {
			t.Fatalf("seed %d: control run acked nothing — check is vacuous", seed)
		}
		if !run.Report.Clean() {
			t.Errorf("seed %d: control run not clean:\n%s", seed, run.Report.Render())
		}
		if run.DetectSeconds >= 0 {
			t.Errorf("seed %d: control run claims a detection at %.3fs", seed, run.DetectSeconds)
		}
	}
}

// FigDoctor renders both rows without error and the control row stays
// clean while the straggler row detects.
func TestFigDoctor(t *testing.T) {
	tbl, err := FigDoctor(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "doctor", tbl)
	if len(tbl.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tbl.Rows))
	}
	straggler, control := tbl.Rows[0], tbl.Rows[1]
	if straggler.Values[1] < 1 {
		t.Errorf("straggler row found no straggle findings: %+v", straggler)
	}
	if control.Values[0] != 0 {
		t.Errorf("control row not clean: %+v", control)
	}
	if straggler.Values[2] <= 0 {
		t.Errorf("straggler row has no detection latency: %+v", straggler)
	}
}
