package experiments

import (
	"fmt"
	"strconv"

	"harl/internal/cluster"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/monitor"
	"harl/internal/mpiio"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/trace"
)

// DriftRun is one monitored drift-scenario execution: an IOR-style
// two-region workload whose second region switches request size mid-run,
// so the plan's layout goes stale and the monitor must notice.
type DriftRun struct {
	Plan    *harl.Plan
	Monitor *monitor.Monitor // nil on a bare (differential-control) run
	Report  *monitor.HealthReport
	Tracer  *obs.Tracer
	Metrics *obs.Registry

	// Shifted says whether phase 2 actually changed the workload;
	// ShiftedRegion is the RST region the shift lands in.
	Shifted       bool
	ShiftedRegion int
	ShiftAt       sim.Time // virtual time phase 2 began
	DetectedAt    sim.Time // when the monitor flagged the region (0 = never)
	Window        sim.Duration

	// Run-identity facts for the on/off differential test: a monitored
	// run must reproduce these exactly.
	End    sim.Time
	Events uint64 // engine events processed
	Bytes  int64  // logical bytes acknowledged by the workload

	// OraclePair is Algorithm 2's choice over the full post-shift request
	// stream of the shifted region — what a fresh Analysis Phase would
	// pick. The advisor, which only sees a window's reservoir sample,
	// must agree.
	OraclePair harl.StripePair

	// BaselineWrites/BaselineReads snapshot the registry's per-region
	// byte counters at monitor-attach time (the registry also saw the
	// unmonitored warm-up), so monitor totals must equal the registry
	// minus these baselines exactly.
	BaselineWrites []int64
	BaselineReads  []int64
}

// driftSpan bounds the drift workload's logical extent: the scenario's
// signal comes from request sizes, not file span, so it runs on at most
// 64 MB regardless of scale.
func driftSpan(o Options) int64 {
	span := o.FileSize
	if span > 64<<20 {
		span = 64 << 20
	}
	return span
}

// driftPlanTrace builds the Analysis Phase input: 64 KB writes covering
// the first half of the span, 2 MB writes covering the second. The sizes
// are far enough apart that the optimizer picks distinct pairs, so the
// merged RST keeps (at least) two regions.
func driftPlanTrace(span int64) *trace.Trace {
	tr := &trace.Trace{}
	half := span / 2
	for off := int64(0); off+64<<10 <= half; off += 64 << 10 {
		tr.Records = append(tr.Records, trace.Record{
			PID: 1000, Rank: 0, FD: 3, Op: device.Write,
			Offset: off, Size: 64 << 10, Start: 0, End: 1,
		})
	}
	for off := half; off+2<<20 <= span; off += 2 << 20 {
		tr.Records = append(tr.Records, trace.Record{
			PID: 1001, Rank: 1, FD: 3, Op: device.Write,
			Offset: off, Size: 2 << 20, Start: 0, End: 1,
		})
	}
	return tr
}

// driftMonitorConfig tunes the monitor for the scenario. The planning
// trace's region boundary bleeds one 2 MB request into the 64 KB region
// (Algorithm 1 closes a region after the CV-breaking request), which
// inflates that region's fingerprint CV; a relaxed CV threshold keeps the
// clean region quiet and leaves detection to the size-distribution
// distance, which is immune to the single outlier.
func driftMonitorConfig(window sim.Duration) monitor.Config {
	return monitor.Config{
		Window:        window,
		MinRequests:   4,
		CVThreshold:   3.0,
		GainThreshold: 0.02,
	}
}

// chain issues count phantom writes of the given size into a region's
// logical interior, back to back from one rank, and reports each
// acknowledged request's region-local offset through record.
func chain(f mpiio.PhantomFile, rank int, regionStart, regionLen int64, size int64, count int, record func(local, size int64)) {
	// Sequential with wraparound, never crossing the region's end.
	room := regionLen - size
	if room <= 0 {
		room = 1
	}
	backToBack(count, func(i int, next func()) {
		local := (int64(i) * size) % room
		f.WriteZeros(rank, regionStart+local, size, func(error) {
			record(local, size)
			next()
		})
	}, nil)
}

// RunDrift executes the drift scenario with the monitor attached. shift
// selects the drifting run; with shift false the workload keeps matching
// the plan end to end (the control run the monitor must stay quiet on).
func RunDrift(o Options, shift bool) (*DriftRun, error) {
	return runDrift(o, shift, true)
}

// runDrift is RunDrift with the monitor switch explicit, so the
// differential test can run the identical workload bare and compare the
// run-identity facts event for event.
func runDrift(o Options, shift, monitored bool) (*DriftRun, error) {
	return runDriftWith(o, shift, monitored, nil, nil)
}

// runDriftWith is the drift scenario with the what-if engine's two
// counterfactual knobs: override re-stripes chosen regions at placement
// time (keyed by region index — "what if we had restriped before the
// shift"), and adjust mutates the testbed before any traffic flows
// ("what if this resource were faster"). Both nil reproduce runDrift
// exactly, event for event.
func runDriftWith(o Options, shift, monitored bool, override map[int]harl.StripePair, adjust func(*cluster.Testbed)) (*DriftRun, error) {
	pl, err := o.planner(o.clusterDefault())
	if err != nil {
		return nil, err
	}
	span := driftSpan(o)
	plan, err := pl.Analyze(driftPlanTrace(span))
	if err != nil {
		return nil, err
	}
	if len(plan.RST.Entries) < 2 {
		return nil, fmt.Errorf("experiments: drift plan collapsed to %d region(s); scenario needs two", len(plan.RST.Entries))
	}
	fp := plan.Fingerprint
	shiftRegion := len(fp.Regions) - 1

	// The placed table may diverge from the plan under an override; the
	// plan (and the monitor's fingerprint) deliberately keep the original
	// pairs — the counterfactual asks how the *same* plan would have
	// fared with different placement, not for a new plan.
	placed := plan.RST
	if len(override) > 0 {
		placed.Entries = append([]harl.RSTEntry(nil), plan.RST.Entries...)
		for i := range placed.Entries {
			if pair, ok := override[i]; ok {
				placed.Entries[i].H, placed.Entries[i].S = pair.H, pair.S
			}
		}
	}

	run := &DriftRun{Plan: plan, Shifted: shift, ShiftedRegion: shiftRegion}
	s := scenario{cluster: o.clusterDefault(), ranks: 2, adjust: adjust, name: "drift", rst: &placed}
	if monitored {
		// Attach the registry before the file is created so the per-region
		// counters resolve; the monitor itself attaches after the warm-up
		// sizes its window.
		s.instrument = func(tb *cluster.Testbed) { run.Tracer, run.Metrics = tb.Instrument() }
	}
	rg, err := o.build(s)
	if err != nil {
		return nil, err
	}
	tb, w, f := rg.tb, rg.w, rg.f

	// Region interiors the chains write into. Region A is the 64 KB-planned
	// first region; region B the 2 MB-planned last one (open-ended, but the
	// chains stay inside its fingerprinted extent).
	regA, regB := fp.Regions[0], fp.Regions[shiftRegion]
	lenA, lenB := regA.End-regA.Offset, regB.End-regB.Offset
	noRecord := func(int64, int64) {}
	countBytes := func(_, size int64) { run.Bytes += size }

	// Phase 0 — warm-up, unmonitored: matches the plan and calibrates the
	// window length to the observed request rate.
	warmStart := tb.Engine.Now()
	w.Run(func() {
		chain(f, 0, regA.Offset, lenA, 64<<10, 96, noRecord)
		chain(f, 1, regB.Offset, lenB, 2<<20, 48, noRecord)
	})
	warmup := tb.Engine.Now().Sub(warmStart)
	run.Window = warmup / 8
	if run.Window < sim.Millisecond {
		run.Window = sim.Millisecond
	}

	var mon *monitor.Monitor
	if monitored {
		mon, err = monitor.New(tb.Engine, fp, pl.Params, driftMonitorConfig(run.Window))
		if err != nil {
			return nil, err
		}
		if err := f.(*mpiio.HARLFile).AttachMonitor(mon); err != nil {
			return nil, err
		}
		tb.FS.SetTierObserver(mon)
		mon.AttachTracer(run.Tracer)
		run.Monitor = mon
		for i := 0; i < len(fp.Regions); i++ {
			labels := []obs.Tag{obs.T("file", "drift"), obs.T("region", strconv.Itoa(i))}
			run.BaselineWrites = append(run.BaselineWrites, run.Metrics.CounterValue("mpi_region_write_bytes_total", labels...))
			run.BaselineReads = append(run.BaselineReads, run.Metrics.CounterValue("mpi_region_read_bytes_total", labels...))
		}
	}

	// Phase 1 — clean, monitored: still exactly the planned workload.
	w.Run(func() {
		chain(f, 0, regA.Offset, lenA, 64<<10, 96, countBytes)
		chain(f, 1, regB.Offset, lenB, 2<<20, 48, countBytes)
	})
	run.ShiftAt = tb.Engine.Now()

	// Phase 2 — region B switches to 64 KB requests (or keeps 2 MB on the
	// control run). The post-shift stream is recorded for the oracle.
	var postShift []trace.Record
	recordB := func(local, size int64) {
		run.Bytes += size
		postShift = append(postShift, trace.Record{Op: device.Write, Offset: local, Size: size, End: 1})
	}
	w.Run(func() {
		chain(f, 0, regA.Offset, lenA, 64<<10, 96, countBytes)
		if shift {
			chain(f, 1, regB.Offset, lenB, 64<<10, 256, recordB)
		} else {
			chain(f, 1, regB.Offset, lenB, 2<<20, 48, recordB)
		}
	})

	run.End = tb.Engine.Now()
	run.Events = tb.Engine.Processed
	if monitored {
		tb.FS.SyncMetrics()
		run.Report = mon.Report("drift")
		if rh := run.Report.Regions[shiftRegion]; rh.Stale {
			run.DetectedAt = rh.StaleAt
		}
	}

	// Oracle: what the Analysis Phase would choose for region B given the
	// full post-shift stream.
	var sum float64
	for _, rec := range postShift {
		sum += float64(rec.Size)
	}
	opt := harl.Optimizer{Params: pl.Params}
	run.OraclePair, _ = opt.OptimizeRegion(postShift, 0, sum/float64(len(postShift)))
	return run, nil
}

// DetectionLatency returns how long after the shift the monitor flagged
// the region, or -1 when it never did.
func (r *DriftRun) DetectionLatency() sim.Duration {
	if r.DetectedAt == 0 {
		return -1
	}
	return r.DetectedAt.Sub(r.ShiftAt)
}

// Advice returns the report's advice for the shifted region, if any.
func (r *DriftRun) Advice() (monitor.Advice, bool) {
	if r.Report == nil {
		return monitor.Advice{}, false
	}
	for _, a := range r.Report.Advice {
		if a.Region == r.ShiftedRegion {
			return a, true
		}
	}
	return monitor.Advice{}, false
}

// adviceGain is the shifted-region advice gain, or 0 when absent.
func (r *DriftRun) adviceGain() float64 {
	if a, ok := r.Advice(); ok {
		return a.Gain
	}
	return 0
}

// FigDrift runs the drift scenario twice — shifted and control — and
// tabulates the monitor's verdicts: windows scored, detection latency,
// and the replan advisor's modeled gain. The shifted run must be flagged
// within (StaleAfter+2) windows of the shift with advice matching the
// oracle re-optimization; the control run must stay healthy throughout.
func FigDrift(o Options) (*Table, error) {
	shifted, err := RunDrift(o, true)
	if err != nil {
		return nil, err
	}
	control, err := RunDrift(o, false)
	if err != nil {
		return nil, err
	}

	cfg := shifted.Monitor.Config()
	bound := sim.Duration(monitor.StaleAfter+2) * cfg.Window
	if lat := shifted.DetectionLatency(); lat < 0 {
		return nil, fmt.Errorf("experiments: drift never detected (%d windows scored)", shifted.Monitor.Windows())
	} else if lat > bound {
		return nil, fmt.Errorf("experiments: drift detected after %v, bound %v", lat, bound)
	}
	adv, ok := shifted.Advice()
	if !ok {
		return nil, fmt.Errorf("experiments: stale region produced no advice")
	}
	if adv.To != shifted.OraclePair {
		return nil, fmt.Errorf("experiments: advisor chose %v, oracle %v", adv.To, shifted.OraclePair)
	}
	if !control.Report.Healthy() {
		return nil, fmt.Errorf("experiments: control run flagged stale")
	}

	t := &Table{
		Title:   "Drift monitor: mid-run request-size shift, detection and replan advice",
		Columns: []string{"windows", "detect ms", "advice gain %", "stale regions"},
	}
	staleCount := func(r *DriftRun) float64 {
		n := 0.0
		for _, reg := range r.Report.Regions {
			if reg.Stale {
				n++
			}
		}
		return n
	}
	t.Add("shift", float64(shifted.Monitor.Windows()),
		shifted.DetectionLatency().Seconds()*1e3, 100*shifted.adviceGain(), staleCount(shifted))
	t.Add("control", float64(control.Monitor.Windows()), -1, 100*control.adviceGain(), staleCount(control))
	return t, nil
}
