package experiments

import (
	"fmt"
	"strings"

	"harl/internal/cluster"
	"harl/internal/diagnose"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/telemetry"
)

// Telemetry experiments: the always-on pipeline (flight recorder + SLO
// burn-rate engine + incident bundles) attached to the replicated chaos
// scenarios through Options.Attach. The attachment is a pure observer —
// the differential tests below the drivers assert an attached run stays
// event-for-event identical to a bare one — so SLO alerting reads the
// exact protocol behavior the replication suite measures.

// sloHorizon is the fault-window horizon the SLO windows are sized
// against — the same sizing chaosConfig applies to the fault schedule.
func sloHorizon(o Options) sim.Duration {
	return chaosConfig(chaosFileSize(o.FileSize), 0).Horizon
}

// SLOObjectives is the default objective set for a chaos run, its
// burn-rate windows sized to the fault horizon so sustained damage
// inside one fault episode fires while a single blip does not.
func SLOObjectives(o Options) []telemetry.Objective {
	horizon := sloHorizon(o)
	return []telemetry.Objective{
		{
			Name: "write-availability", Kind: telemetry.KindAvailability,
			Target: 0.999, Window: horizon, Burn: 4, MinSamples: 8,
		},
		{
			Name: "op-latency", Kind: telemetry.KindLatency,
			Target: 0.99, Limit: o.RequestTimeout.Seconds(),
			Window: horizon, Burn: 4, MinSamples: 8,
		},
		{
			Name: "catchup-lag", Kind: telemetry.KindCatchUpLag,
			Target: 0.9, Limit: 8, Window: horizon, Burn: 2, MinSamples: 4,
		},
		{
			Name: "replica-staleness", Kind: telemetry.KindStaleness,
			Target: 0.9, Window: horizon, Burn: 2, MinSamples: 2,
		},
	}
}

// SLORun is one telemetry-attached replicated chaos run.
type SLORun struct {
	// Result is the underlying replication run — identical to what the
	// bare driver measures, by the passive-observer contract.
	Result ChaosResult
	// Alerts are the burn-rate violations in firing order.
	Alerts []telemetry.Alert
	// Bundles are the captured incident bundles (written under the
	// bundle root when one was given).
	Bundles []*telemetry.Bundle
	// Recorder is the flight-recorder occupancy at run end.
	Recorder telemetry.RecorderStats
	// Snapshot is the final Prometheus metrics export.
	Snapshot string
}

// pipeline is the always-on telemetry attached to one testbed.
type pipeline struct {
	tel      *telemetry.T
	err      error
	snapshot func() string
	tb       *cluster.Testbed
}

// withPipeline returns o with an Attach hook that wires cfg's pipeline
// into the testbed: a streaming tracer feeding the flight recorder and
// SLO engine, a metrics registry behind the Prometheus snapshot, and
// the doctor.
func withPipeline(o Options, cfg telemetry.Config) (Options, *pipeline) {
	p := &pipeline{}
	o.Attach = func(tb *cluster.Testbed) {
		p.tb = tb
		if p.tel, p.err = telemetry.New(cfg); p.err != nil {
			return
		}
		reg := obs.NewRegistry()
		tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, p.tel), reg)
		p.snapshot = func() string {
			tb.FS.SyncMetrics()
			var sb strings.Builder
			if err := reg.WriteProm(&sb, tb.Engine.Now()); err != nil {
				return "# export failed: " + err.Error() + "\n"
			}
			return sb.String()
		}
		p.tel.SetSnapshot(p.snapshot)
		attachDoctor(p.tel, tb)
	}
	return o, p
}

// check reports a pipeline that failed to build or never attached.
func (p *pipeline) check() error {
	if p.err != nil {
		return p.err
	}
	if p.tel == nil {
		return fmt.Errorf("telemetry: driver never attached the pipeline")
	}
	return nil
}

// finish reads the pipeline's outcome off a completed run.
func (p *pipeline) finish(res ChaosResult) (*SLORun, error) {
	if err := p.tel.Err(); err != nil {
		return nil, fmt.Errorf("telemetry: bundle write: %w", err)
	}
	return &SLORun{
		Result:   res,
		Alerts:   p.tel.Alerts(),
		Bundles:  p.tel.Bundles(),
		Recorder: p.tel.Recorder().Stats(),
		Snapshot: p.snapshot(),
	}, nil
}

// RunSLO executes the replicated IOR chaos scenario with the telemetry
// pipeline attached: a streaming tracer feeds the flight recorder and
// SLO engine, and every alert freezes the recorder window into an
// incident bundle under bundleRoot (kept in memory when bundleRoot is
// empty). r=2 with faults under the given shape — the scenario whose
// availability and catch-up objectives have something to say.
func RunSLO(o Options, shape ReplShape, bundleRoot string) (*SLORun, error) {
	run, p := withPipeline(o, telemetry.Config{
		Seed:       o.Seed,
		RingSpans:  512,
		Objectives: SLOObjectives(o),
		BundleRoot: bundleRoot,
	})
	res, err := runReplIOR(run, o.clientPolicy(), 2, shape, true)
	if err != nil {
		return nil, err
	}
	if err := p.check(); err != nil {
		return nil, err
	}
	return p.finish(res)
}

// attachDoctor binds the sketch layer and anomaly detector to the
// testbed and installs a diagnosis renderer on the telemetry pipeline,
// so every incident bundle carries a doctor.txt diagnosing the run up
// to the capture instant. Both sides stay passive observers.
func attachDoctor(tel *telemetry.T, tb *cluster.Testbed) {
	ss := obs.NewSketchSet(tb.Engine, obs.SketchConfig{})
	det := diagnose.NewDetector(ss, diagnose.Config{})
	tb.FS.AttachSketches(ss)
	tel.SetDoctor(func(sim.Time) string {
		return det.Diagnose(diagnose.Correlates{
			CatchUps:   int(tb.FS.Repl.CatchUps),
			Promotions: int(tb.FS.Repl.Promotions),
		}).Render()
	})
}

// RunRecord executes the fault-free replicated scenario with the
// recorder attached and freezes one manual bundle at run end — the
// `harlctl record` path: no alert needed, just "give me the recent
// past".
func RunRecord(o Options, bundleRoot string) (*SLORun, *telemetry.Bundle, error) {
	ro, p := withPipeline(o, telemetry.Config{Seed: o.Seed, RingSpans: 512})
	res, err := runReplIOR(ro, o.clientPolicy(), 2, ReplShapeCrash, false)
	if err != nil {
		return nil, nil, err
	}
	if err := p.check(); err != nil {
		return nil, nil, err
	}
	b := p.tel.CaptureNow("record", p.tb.Engine.Now())
	if bundleRoot != "" {
		if _, err := b.WriteDir(bundleRoot); err != nil {
			return nil, nil, err
		}
	}
	sr, err := p.finish(res)
	return sr, b, err
}

// FigSLO is the chaos-alert table: each replica-targeted shape run with
// the SLO pipeline attached, reporting how fast the burn-rate alerting
// saw the damage and what the incident bundles captured.
func FigSLO(o Options) (*Table, error) {
	// Quick scale shrinks the fault horizon below the traffic span, so
	// double-crash outages can miss the writes entirely; the alerting
	// figure keeps the default chaos file size.
	if o.FileSize < 2<<30 {
		o.FileSize = 2 << 30
	}
	t := &Table{
		Title: fmt.Sprintf("SLO burn-rate alerting under replica-targeted faults (chaos seed %d)", o.ChaosSeed),
		Columns: []string{
			"alerts", "first alert ms", "avail alerts", "lag alerts",
			"bundles", "bundle spans", "integrity",
		},
	}
	for _, shape := range ReplShapes() {
		run, err := RunSLO(o, shape, "")
		if err != nil {
			return nil, fmt.Errorf("slo %q: %w", shape, err)
		}
		if run.Result.IntegrityViolations > 0 {
			return nil, fmt.Errorf("slo %q: %d acked ranges failed verification", shape, run.Result.IntegrityViolations)
		}
		firstMs := 0.0
		if len(run.Alerts) > 0 {
			firstMs = float64(run.Alerts[0].At) / float64(sim.Millisecond)
		}
		var avail, lag, spans int
		for _, a := range run.Alerts {
			switch a.Kind {
			case telemetry.KindAvailability:
				avail++
			case telemetry.KindCatchUpLag:
				lag++
			}
		}
		for _, b := range run.Bundles {
			spans += len(b.Spans)
		}
		t.Add(string(shape),
			float64(len(run.Alerts)), firstMs, float64(avail), float64(lag),
			float64(len(run.Bundles)), float64(spans),
			float64(run.Result.IntegrityViolations))
	}
	return t, nil
}
