package experiments

import "testing"

// TestScaleHugeScale asserts the acceptance floor: at least 1000
// servers and 1M processed events, the pinned virtual end time, and all
// traffic acknowledged (RunScaleHuge fails internally on any I/O error).
// Wall time and events/sec are measured by the bench module's
// scale_huge workload, not here — this test also runs under -race,
// which slows the event loop by an order of magnitude.
func TestScaleHugeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("ScaleHuge is a multi-second run")
	}
	res, err := RunScaleHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers < 1000 {
		t.Errorf("servers = %d, want >= 1000", res.Servers)
	}
	if res.Events < 1_000_000 {
		t.Errorf("events = %d, want >= 1M", res.Events)
	}
	if res.Requests != scaleHugeClients*scaleHugeWrites {
		t.Errorf("requests = %d, want %d", res.Requests, scaleHugeClients*scaleHugeWrites)
	}
	pinNanos(t, "scale_huge_end", secondsToNanos(res.EndSeconds), 2_320_871_934)
	// Determinism: a replay reproduces the virtual facts exactly.
	again, err := RunScaleHuge(1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Events != res.Events || again.EndSeconds != res.EndSeconds {
		t.Errorf("replay diverged: events %d vs %d, end %v vs %v",
			again.Events, res.Events, again.EndSeconds, res.EndSeconds)
	}
}
