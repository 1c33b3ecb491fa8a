// Package telemetry is the simulator's always-on operability layer: a
// fixed-memory flight recorder over the span stream, an SLO engine with
// multi-window burn-rate alerting, and automatic incident bundles that
// freeze the recorder's window the moment an objective's error budget
// burns too fast.
//
// A telemetry instance is an obs.SpanSink: attach it with
// obs.NewStreamTracer and every finalized span flows through OnSpan —
// into the per-track rings, and into the SLO engine as an observation
// (operation latency, attempt availability, catch-up lag, staleness).
// Everything honors the tracer's passive-observer contract: no event
// scheduling, no engine RNG draws, every timestamp virtual. An attached
// run therefore executes the exact event sequence of a bare one; the
// differential tests in internal/experiments prove it per scenario.
package telemetry

import (
	"strconv"

	"harl/internal/obs"
	"harl/internal/sim"
)

// Config assembles a telemetry instance.
type Config struct {
	// Seed names the per-seed incident directory.
	Seed int64
	// RingSpans is the flight recorder's per-track capacity (default 256).
	RingSpans int
	// Objectives are the SLOs to evaluate.
	Objectives []Objective
	// BundleRoot, when non-empty, is the directory incident bundles are
	// written under; empty keeps bundles in memory only.
	BundleRoot string
}

// maxBundles caps alert-triggered captures per run so a flapping
// objective cannot fill the disk.
const maxBundles = 8

// T is the telemetry pipeline: recorder + SLO engine + bundle capture.
type T struct {
	cfg      Config
	rec      *Recorder
	slo      *Engine
	snapshot func() string
	doctor   func(at sim.Time) string
	bundles  []*Bundle
	writeErr error
}

// New builds a telemetry instance, filling config defaults.
func New(cfg Config) (*T, error) {
	eng, err := NewEngine(cfg.Objectives)
	if err != nil {
		return nil, err
	}
	return &T{cfg: cfg, rec: NewRecorder(cfg.RingSpans), slo: eng}, nil
}

// SetSnapshot installs the metrics snapshotter invoked at capture time —
// typically a closure that syncs the FS metrics and renders the registry
// in Prometheus text format. The snapshotter must itself be passive.
func (t *T) SetSnapshot(fn func() string) { t.snapshot = fn }

// SetDoctor installs the diagnosis renderer invoked at capture time —
// typically a closure that flushes the diagnose detector and renders
// its ranked report, landing in the bundle's doctor.txt beside the
// blame table. Must itself be passive.
func (t *T) SetDoctor(fn func(at sim.Time) string) { t.doctor = fn }

// Recorder exposes the flight recorder.
func (t *T) Recorder() *Recorder { return t.rec }

// Alerts returns every alert fired so far.
func (t *T) Alerts() []Alert { return t.slo.Alerts() }

// Bundles returns the captured incident bundles in capture order.
func (t *T) Bundles() []*Bundle { return t.bundles }

// Err returns the first bundle-write error, if any.
func (t *T) Err() error { return t.writeErr }

// OnSpan implements obs.SpanSink: record the span, derive SLO
// observations from it, and capture an incident bundle for every alert
// the observation fired. The recorder copies what it keeps, so nothing
// here holds s past the call.
func (t *T) OnSpan(s *obs.Span) {
	t.rec.Add(s)
	for _, a := range t.observe(s) {
		if len(t.bundles) >= maxBundles {
			break
		}
		alert := a
		t.capture(alert.Objective, &alert, alert.At)
	}
}

// CaptureNow freezes the current recorder window into a bundle outside
// any alert — the `harlctl record` path. Not counted against maxBundles.
func (t *T) CaptureNow(reason string, at sim.Time) *Bundle {
	return t.capture(reason, nil, at)
}

func (t *T) capture(reason string, alert *Alert, at sim.Time) *Bundle {
	metrics := ""
	if t.snapshot != nil {
		metrics = t.snapshot()
	}
	b := newBundle(reason, alert, t.cfg.Seed, at, t.rec, metrics)
	if t.doctor != nil {
		b.Doctor = t.doctor(at)
	}
	t.bundles = append(t.bundles, b)
	if t.cfg.BundleRoot != "" {
		if _, err := b.WriteDir(t.cfg.BundleRoot); err != nil && t.writeErr == nil {
			t.writeErr = err
		}
	}
	return b
}

// observe maps one finalized span to SLO observations. The span
// inventory here mirrors the instrumentation in internal/pfs: operation
// spans carry a status tag, attempt spans an outcome tag, and the
// replication catch-up/staleness spans the group coordinates added for
// blame attribution. A span whose kind no objective watches returns
// before its tags are read, so an engine without objectives costs
// nothing per span.
func (t *T) observe(s *obs.Span) []Alert {
	switch s.Name {
	case "pfs.write", "pfs.read":
		if s.Inst || !t.slo.watches(KindLatency) {
			return nil
		}
		status, _ := s.Tag("status")
		secs := float64(s.Duration()) / float64(sim.Second)
		return t.slo.Observe(KindLatency, s.End, status == "ok", secs, s.Name)
	case "attempt":
		if s.Inst || !t.slo.watches(KindAvailability) {
			return nil
		}
		outcome, _ := s.Tag("outcome")
		ok := outcome == "ok" || outcome == "hedge-win"
		// Only a failed attempt is attributed, so only it names one.
		detail := ""
		if !ok {
			if g, has := s.Tag("group"); has {
				detail = "group " + g
			} else if sv, has := s.Tag("server"); has {
				detail = "server " + sv
			}
		}
		return t.slo.Observe(KindAvailability, s.End, ok, 0, detail)
	case "repl.catchup":
		if !t.slo.watches(KindCatchUpLag) {
			return nil
		}
		status, _ := s.Tag("status")
		lag := 0.0
		if v, has := lastTag(s, "lag"); has {
			if n, err := strconv.ParseFloat(v, 64); err == nil {
				lag = n
			}
		}
		return t.slo.Observe(KindCatchUpLag, s.End, status == "ok", lag, groupDetail(s))
	case "repl.stale", "repl.caughtup":
		if !t.slo.watches(KindStaleness) {
			return nil
		}
		return t.slo.Observe(KindStaleness, s.End, s.Name == "repl.caughtup", 0, groupDetail(s))
	}
	return nil
}

// lastTag returns the last value of a repeated tag — End-appended tags
// (remaining lag) supersede Begin-time ones.
func lastTag(s *obs.Span, key string) (string, bool) {
	for i := len(s.Tags) - 1; i >= 0; i-- {
		if s.Tags[i].Key == key {
			return s.Tags[i].Value(), true
		}
	}
	return "", false
}

func groupDetail(s *obs.Span) string {
	if g, has := s.Tag("group"); has {
		return "group " + g
	}
	return ""
}
