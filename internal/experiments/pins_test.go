package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
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
//	ior_end         TestObserverPurity/ior (the bare run)
//	drift_end       TestObserverPurity/drift (the bare run)
//	scale_huge_end  TestScaleHugeScale
//	repl_recovery   TestReplRecoveryMeasured
//	slo_alert       TestSLOAlertsOnDoubleCrashSeeds (seed 1)
//	doctor_detect   TestDoctorNamesSeededStragglerSeeds (seed 1)
//	btio_simple     internal/btio's TestSimpleSubtypeVerifies
//
// TestVirtualOutcomesPinned holds the rest, and TestTraceExportsPinned
// pins the traced run's export bytes. Host-time numbers (wall
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

// TestTraceExportsPinned pins the SHA-256 of the quick traced IOR run's
// three exports: the Chrome trace (every span, its ID, order and tags),
// the metrics text and the Prometheus exposition. Record recycling and
// other internal rewrites must leave every byte of them unchanged.
func TestTraceExportsPinned(t *testing.T) {
	run, err := TraceIOR(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		want  string
		write func(io.Writer) error
	}{
		{"chrome", "30f138d3552a871dca77b92fbcbeb204d381332fe93ffb5fa377dbb2a06773d8", run.WriteChrome},
		{"metrics", "855e077b49eeb5581b7e9cc87fef7371168755b5b676627ce85f674a1ff7c5e0", run.WriteMetrics},
		{"prom", "9e8e569e5be0aac2c2858eeac954a3a8fdf0469a4a952da87f003a3203702852", func(w io.Writer) error { return run.Metrics.WriteProm(w, run.End) }},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != c.want {
			t.Errorf("%s export sha256 = %s, pinned %s (%d bytes): the traced run changed", c.name, got, c.want, buf.Len())
		}
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
// same with and without -race. What remains is the rings' first fill: a
// full ring allocates nothing.
func TestRecorderAllocsPerSpan(t *testing.T) {
	const limit = 0.15 // allocations per span
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
