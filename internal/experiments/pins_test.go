package experiments

import (
	"math"
	"runtime"
	"testing"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/obs"
	"harl/internal/telemetry"
)

// The quick-scale virtual outcomes are the behavioural spec: each is
// deterministic, so each is pinned to the nanosecond and any change
// means the simulation changed. Most pins sit in the test that already
// runs their scenario:
//
//	ior_end         TestTracingDisabledDifferential
//	drift_end       TestDriftMonitorDifferential
//	scale_huge_end  TestScaleHugeScale
//	repl_recovery   TestReplRecoveryMeasured
//	slo_alert       TestSLOAlertsOnDoubleCrashSeeds (seed 1)
//	doctor_detect   TestDoctorNamesSeededStragglerSeeds (seed 1)
//
// TestVirtualOutcomesPinned holds the rest. Host-time numbers (wall
// time, events/sec, observer overhead) belong to the bench module.

// pinNanos fails t unless a virtual outcome equals its pinned value.
func pinNanos(t *testing.T, name string, got, want int64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %dns, pinned %dns (%+dns): the simulated behaviour changed", name, got, want, got-want)
	}
}

// secondsToNanos recovers the integer nanoseconds behind a virtual
// duration reported in float seconds; float64 holds them exactly at
// these magnitudes.
func secondsToNanos(s float64) int64 { return int64(math.Round(s * 1e9)) }

// TestVirtualOutcomesPinned pins the outcomes no other test exposes:
// the fixed-stripe BTIO end time and the fault-free replicated-write
// spans at r=1 and r=2.
func TestVirtualOutcomesPinned(t *testing.T) {
	o := QuickOptions()
	replWrite := func(r int) func() (int64, error) {
		return func() (int64, error) {
			res, err := runReplIOR(o, o.clientPolicy(), r, ReplShapeCrash, false)
			return secondsToNanos(res.WriteSeconds), err
		}
	}
	cases := []struct {
		name string
		want int64
		run  func() (int64, error)
	}{
		{"btio_end", 71_553_405, func() (int64, error) { return btioFixedEnd(o) }},
		{"repl_r1_write", 62_085_738, replWrite(1)},
		{"repl_r2_write", 123_690_484, replWrite(2)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			pinNanos(t, c.name, got, c.want)
		})
	}
}

// btioFixedEnd runs 4-rank BTIO at the option set's class on 64 KB
// fixed stripes and returns the virtual end time in nanoseconds.
func btioFixedEnd(o Options) (int64, error) {
	cfg := o.BTIOClass(4)
	s := fixed(o.clusterDefault(), harl.StripePair{H: 64 << 10, S: 64 << 10})
	s.name, s.ranks = "btio", cfg.Ranks
	rg, err := o.build(s)
	if err != nil {
		return 0, err
	}
	if _, err := btio.Run(rg.w, rg.f, cfg); err != nil {
		return 0, err
	}
	return int64(rg.tb.Engine.Now()), nil
}

// TestRecorderAllocsPerSpan bounds the heap cost of always-on
// recording: the allocations the attached telemetry pipeline adds to the
// quick IOR replay, per captured span. Both replays share one plan, so
// only the single-goroutine event loop is counted and the figure is the
// same with and without -race.
func TestRecorderAllocsPerSpan(t *testing.T) {
	const limit = 6.1 // allocations per span
	o := QuickOptions()
	pl, err := o.planner(o.clusterDefault())
	if err != nil {
		t.Fatal(err)
	}
	cfg := o.iorConfig(o.Ranks, 512<<10)
	plan, err := pl.Analyze(cfg.Trace())
	if err != nil {
		t.Fatal(err)
	}
	replay := func(o Options) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := placedIOR(o, pl.Params, plan, cfg, false, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs - before.Mallocs)
	}
	bare := replay(o)
	var tel *telemetry.T
	o.Attach = func(tb *cluster.Testbed) {
		var err error
		if tel, err = telemetry.New(telemetry.Config{Seed: o.Seed, RingSpans: 512}); err != nil {
			t.Fatal(err)
		}
		tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, tel), obs.NewRegistry())
	}
	extra := replay(o) - bare
	spans := tel.Recorder().Stats().Captured
	if spans == 0 {
		t.Fatal("attached replay captured no spans")
	}
	per := extra / float64(spans)
	t.Logf("recorder: %.2f allocations per span over %d spans", per, spans)
	if per > limit {
		t.Errorf("recorder adds %.2f allocations per span (%.0f over %d spans), limit %.1f", per, extra, spans, limit)
	}
}
