package experiments

import (
	"fmt"
	"io"
	"math"

	"harl/internal/cluster"
	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/pfs"
	"harl/internal/sim"
)

// TraceRun is one fully-instrumented IOR execution over HARL's layout:
// the recorded trace and metrics alongside everything needed to
// interpret them (the plan that placed the file, the calibrated model,
// the file system whose servers name the trace tracks).
type TraceRun struct {
	Tracer  *obs.Tracer
	Metrics *obs.Registry
	Result  ior.Result
	Plan    *harl.Plan
	FS      *pfs.FS
	End     sim.Time // virtual time when the run finished
	Params  cost.Params
	Config  ior.Config
	Opts    Options // the options that produced the run, for exact replays
}

// WriteChrome exports the run's span trace as Chrome trace_event JSON,
// loadable in Perfetto.
func (r *TraceRun) WriteChrome(w io.Writer) error {
	return r.Tracer.WriteChrome(w)
}

// WriteMetrics dumps the run's metrics registry as text, stamped at the
// run's end time.
func (r *TraceRun) WriteMetrics(w io.Writer) error {
	return r.Metrics.WriteText(w, r.End)
}

// TraceIOR runs the paper's baseline IOR workload (512 KB requests)
// through the full HARL pipeline — calibrate, analyze, place, run — with
// the tracer and metrics registry attached, and returns the instrumented
// run. Two calls with the same options produce byte-identical exports.
func TraceIOR(o Options) (*TraceRun, error) {
	return traceIOR(o, true)
}

// traceIOR is TraceIOR with the observability switch explicit, so the
// differential test can run the identical workload bare and compare
// results event-for-event.
func traceIOR(o Options, instrument bool) (*TraceRun, error) {
	pl, err := o.planner(o.clusterDefault())
	if err != nil {
		return nil, err
	}
	cfg := o.iorConfig(o.Ranks, 512<<10)
	plan, err := pl.Analyze(cfg.Trace())
	if err != nil {
		return nil, err
	}
	return placedIOR(o, pl.Params, plan, cfg, instrument, nil)
}

// placedIOR executes the IOR workload on a fresh cluster under an
// already-computed plan. adjust, when non-nil, mutates the testbed after
// construction and before any traffic flows — the what-if engine's hook
// for virtually scaling a resource. With a nil adjust and instrument
// false this is the exact bare replay of the seeded scenario.
func placedIOR(o Options, params cost.Params, plan *harl.Plan, cfg ior.Config, instrument bool, adjust func(*cluster.Testbed)) (*TraceRun, error) {
	run := &TraceRun{Plan: plan, Params: params, Config: cfg, Opts: o}
	s := scenario{cluster: o.clusterDefault(), ranks: cfg.Ranks, adjust: adjust, name: "ior", rst: &plan.RST}
	if instrument {
		s.instrument = func(tb *cluster.Testbed) { run.Tracer, run.Metrics = tb.Instrument() }
	}
	rg, err := o.build(s)
	if err != nil {
		return nil, err
	}
	run.FS = rg.tb.FS
	if run.Result, err = ior.Run(rg.w, rg.f, cfg); err != nil {
		return nil, err
	}
	run.End = rg.tb.Engine.Now()
	rg.tb.FS.SyncMetrics()
	return run, nil
}

// TierTime decomposes one server class's time in a traced run: device
// service and queueing measured from the disk spans, against the cost
// model's expected device time for the same request stream.
type TierTime struct {
	Tier          string  // "hdd" or "ssd"
	DeviceSeconds float64 // measured disk service time (sum of disk.read/disk.write spans)
	QueueSeconds  float64 // measured disk queue wait (sum of disk.wait spans)
	ModelSeconds  float64 // cost-model expected device time for the same sub-requests
}

// TraceBreakdown is a traced run decomposed into where the simulated
// time went, per tier, plus the network wire time.
type TraceBreakdown struct {
	Tiers       []TierTime // hdd then ssd
	NetSeconds  float64    // sum of xfer span durations
	WallSeconds float64    // end-to-end virtual time of the run
}

// shares normalizes a pair of per-tier values into fractions of their sum.
func shares(a, b float64) (float64, float64) {
	total := a + b
	if total == 0 {
		return 0, 0
	}
	return a / total, b / total
}

// MeasuredShares returns each tier's fraction of total measured device time.
func (b *TraceBreakdown) MeasuredShares() []float64 {
	h, s := shares(b.Tiers[0].DeviceSeconds, b.Tiers[1].DeviceSeconds)
	return []float64{h, s}
}

// ModelShares returns each tier's fraction of total modeled device time.
func (b *TraceBreakdown) ModelShares() []float64 {
	h, s := shares(b.Tiers[0].ModelSeconds, b.Tiers[1].ModelSeconds)
	return []float64{h, s}
}

// ShareError returns the largest disagreement between measured and
// modeled per-tier device-time shares, as a fraction of the model share
// (relative where the model share is substantial, absolute below 5%).
func (b *TraceBreakdown) ShareError() float64 {
	measured, model := b.MeasuredShares(), b.ModelShares()
	var worst float64
	for i := range measured {
		diff := math.Abs(measured[i] - model[i])
		if model[i] >= 0.05 {
			diff /= model[i]
		}
		if diff > worst {
			worst = diff
		}
	}
	return worst
}

// Breakdown decomposes the traced run. The measured side sums the disk
// and network spans per tier; the model side replays the run's request
// stream through the RST and each region's striping geometry, charging
// every sub-request its expected service time E[svc] = (αmin+αmax)/2 +
// size·β with the class- and op-specific calibrated parameters. The two
// sides agreeing is the cost model's end-to-end validation: the grid
// search ranks layouts by exactly these expectations.
func (r *TraceRun) Breakdown() (*TraceBreakdown, error) {
	if r.Tracer == nil {
		return nil, fmt.Errorf("experiments: breakdown needs an instrumented run")
	}
	b := &TraceBreakdown{
		Tiers:       []TierTime{{Tier: "hdd"}, {Tier: "ssd"}},
		WallSeconds: r.End.Sub(0).Seconds(),
	}

	// Measured: disk spans live on tracks named after their server.
	tierOf := make(map[string]int, len(r.FS.Servers()))
	for _, s := range r.FS.Servers() {
		ti := 0
		if s.Role() != device.HDD {
			ti = 1
		}
		tierOf[s.Name] = ti
	}
	for _, sp := range r.Tracer.Spans() {
		switch sp.Name {
		case "disk.read", "disk.write":
			b.Tiers[tierOf[sp.Track]].DeviceSeconds += sp.Duration().Seconds()
		case "disk.wait":
			b.Tiers[tierOf[sp.Track]].QueueSeconds += sp.Duration().Seconds()
		case "xfer":
			b.NetSeconds += sp.Duration().Seconds()
		}
	}

	// Model: replay the workload's request stream through the placed
	// layout. cfg.Trace() is exactly the request plan ior.Run replays.
	hCount, sCount := r.FS.CountRoles()
	p := r.Params
	for _, rec := range r.Config.Trace().Records {
		for _, piece := range splitRST(&r.Plan.RST, rec.Offset, rec.Size) {
			e := r.Plan.RST.Entries[piece.region]
			st := layout.Striping{M: hCount, N: sCount, H: e.H, S: e.S}
			for _, sub := range st.Map(piece.local, piece.length) {
				size := float64(sub.Size)
				if sub.Server < hCount {
					b.Tiers[0].ModelSeconds += (p.AlphaHMin+p.AlphaHMax)/2 + size*p.BetaH
				} else if rec.Op == device.Read {
					b.Tiers[1].ModelSeconds += (p.AlphaSRMin+p.AlphaSRMax)/2 + size*p.BetaSR
				} else {
					b.Tiers[1].ModelSeconds += (p.AlphaSWMin+p.AlphaSWMax)/2 + size*p.BetaSW
				}
			}
		}
	}
	return b, nil
}

// rstPiece is one region-local fragment of a logical request, mirroring
// the split HARLFile performs at region boundaries.
type rstPiece struct {
	region int
	local  int64
	length int64
}

// splitRST cuts [off, off+size) at RST region boundaries; the last
// region is open-ended, as in HARLFile.split.
func splitRST(rst *harl.RST, off, size int64) []rstPiece {
	var pieces []rstPiece
	pos := off
	end := off + size
	for pos < end {
		ri := rst.Lookup(pos)
		e := rst.Entries[ri]
		pieceEnd := e.End
		if ri == len(rst.Entries)-1 || pieceEnd > end {
			pieceEnd = end
		}
		pieces = append(pieces, rstPiece{region: ri, local: pos - e.Offset, length: pieceEnd - pos})
		pos = pieceEnd
	}
	return pieces
}

// FigTraceBreakdown runs the instrumented IOR baseline and tabulates
// where the simulated time went: per-tier device service and queueing
// measured from the trace, next to the cost model's expected device time
// for the identical sub-request stream, plus the network wire time. The
// table is the observability pipeline's end-to-end check — the measured
// per-tier device-time split must land within 10% of the model's.
func FigTraceBreakdown(o Options) (*Table, error) {
	run, err := TraceIOR(o)
	if err != nil {
		return nil, err
	}
	b, err := run.Breakdown()
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Trace breakdown: IOR time by tier (device/queue/net), measured vs cost model",
		Columns: []string{"device s", "queue s", "model device s", "share %", "model share %"},
	}
	measured, model := b.MeasuredShares(), b.ModelShares()
	for i, tier := range b.Tiers {
		t.Add(tier.Tier, tier.DeviceSeconds, tier.QueueSeconds, tier.ModelSeconds,
			100*measured[i], 100*model[i])
	}
	t.Add("net", b.NetSeconds, 0, 0, 0, 0)
	if errShare := b.ShareError(); errShare > 0.10 {
		return nil, fmt.Errorf("experiments: measured device-time shares deviate %.1f%% from the cost model (limit 10%%)", 100*errShare)
	}
	return t, nil
}
