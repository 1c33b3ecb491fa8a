package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harl/internal/telemetry"
)

// The ISSUE's headline acceptance: under the seeded double-crash
// schedule the availability/catch-up SLO fires within its burn-rate
// window, and the incident bundle holds the window's trace, metrics
// snapshot and a blame table naming the crashed group — deterministic
// over seeds 1-3.
func TestSLOAlertsOnDoubleCrashSeeds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		o := QuickOptions()
		// Quick scale shrinks the fault horizon to ~21ms, short enough
		// that a double-crash can miss the write traffic entirely; the
		// default chaos file keeps outages long enough to observe.
		o.FileSize = 2 << 30
		o.Seed = seed
		o.ChaosSeed = seed
		root := t.TempDir()
		run, err := RunSLO(o, ReplShapeDoubleCrash, root)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if run.Result.IntegrityViolations > 0 {
			t.Fatalf("seed %d: %d integrity violations", seed, run.Result.IntegrityViolations)
		}
		if len(run.Alerts) == 0 {
			t.Fatalf("seed %d: double-crash fired no alerts", seed)
		}
		if seed == 1 {
			pinNanos(t, "slo_alert", int64(run.Alerts[0].At), 246_796_734)
		}
		// The availability or catch-up objective must be among them, and
		// its detail must name a replica group.
		var incident *telemetry.Alert
		for i, a := range run.Alerts {
			if a.Kind == telemetry.KindAvailability || a.Kind == telemetry.KindCatchUpLag {
				incident = &run.Alerts[i]
				break
			}
		}
		if incident == nil {
			t.Fatalf("seed %d: no availability/catch-up alert among %v", seed, run.Alerts)
		}
		if !strings.HasPrefix(incident.Detail, "group ") {
			t.Fatalf("seed %d: alert detail %q does not name a group", seed, incident.Detail)
		}
		group := strings.TrimPrefix(incident.Detail, "group ")

		if len(run.Bundles) == 0 {
			t.Fatalf("seed %d: alert captured no bundle", seed)
		}
		var bundle *telemetry.Bundle
		for _, b := range run.Bundles {
			if b.Alert != nil && b.Alert.Objective == incident.Objective && b.Alert.At == incident.At {
				bundle = b
				break
			}
		}
		if bundle == nil {
			t.Fatalf("seed %d: no bundle for alert %v", seed, *incident)
		}
		if len(bundle.Spans) == 0 {
			t.Fatalf("seed %d: bundle window is empty", seed)
		}
		if !strings.Contains(bundle.Metrics, "pfs_repl") {
			t.Fatalf("seed %d: bundle metrics snapshot missing replication counters", seed)
		}
		if bundle.Blame == nil {
			t.Fatalf("seed %d: bundle has no blame table", seed)
		}
		if _, ok := bundle.Blame.Group[group]; !ok {
			t.Fatalf("seed %d: blame table does not name crashed group %s: %v", seed, group, bundle.Blame.Group)
		}
		// The bundle landed on disk with all four artifacts.
		dir := filepath.Join(root, bundle.Dir())
		for _, f := range []string{"alert.txt", "trace.json", "metrics.txt", "blame.txt"} {
			if fi, err := os.Stat(filepath.Join(dir, f)); err != nil || fi.Size() == 0 {
				t.Fatalf("seed %d: bundle artifact %s missing or empty: %v", seed, f, err)
			}
		}

		// Determinism: the same seed replays the same alerts and bundles.
		again, err := RunSLO(o, ReplShapeDoubleCrash, "")
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if len(again.Alerts) != len(run.Alerts) {
			t.Fatalf("seed %d: alert count diverged across replays: %d vs %d", seed, len(run.Alerts), len(again.Alerts))
		}
		for i := range run.Alerts {
			if run.Alerts[i] != again.Alerts[i] {
				t.Fatalf("seed %d: alert %d diverged: %v vs %v", seed, i, run.Alerts[i], again.Alerts[i])
			}
		}
		if run.Result != again.Result {
			t.Fatalf("seed %d: run result diverged across replays", seed)
		}
		if run.Snapshot != again.Snapshot {
			t.Fatalf("seed %d: metrics snapshot diverged across replays", seed)
		}
	}
}

// Fault-free traffic must not page anyone, and the manual record path
// still captures a full bundle.
func TestRecordFaultFreeQuiet(t *testing.T) {
	o := QuickOptions()
	root := t.TempDir()
	run, bundle, err := RunRecord(o, root)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Alerts) != 0 {
		t.Fatalf("fault-free run fired alerts: %v", run.Alerts)
	}
	if run.Result.IntegrityViolations > 0 || run.Result.Failed > 0 {
		t.Fatalf("fault-free run had failures: %+v", run.Result)
	}
	if bundle == nil || len(bundle.Spans) == 0 || bundle.Alert != nil {
		t.Fatalf("manual bundle malformed: %+v", bundle)
	}
	if !strings.Contains(run.Snapshot, "# TYPE pfs_disk_ops_total counter") {
		t.Fatalf("prometheus snapshot missing TYPE lines:\n%.400s", run.Snapshot)
	}
	dir := filepath.Join(root, bundle.Dir())
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Fatal(err)
	}
}
