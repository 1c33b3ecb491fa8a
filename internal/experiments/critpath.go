package experiments

import (
	"fmt"
	"io"

	"harl/internal/cluster"
	"harl/internal/critpath"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/monitor"
	"harl/internal/sim"
)

// CritPath extracts the critical path from the run's recorded trace:
// the chain of activity that bounded the makespan, with per-resource
// blame attribution in exact virtual time.
func (r *TraceRun) CritPath() (*critpath.Result, error) {
	if r.Tracer == nil {
		return nil, fmt.Errorf("experiments: critical path needs an instrumented run")
	}
	return critpath.Analyze(r.Tracer.Spans())
}

// WriteChromeHighlighted exports the trace with the critical path as a
// synthetic highlight track above the raw spans.
func (r *TraceRun) WriteChromeHighlighted(w io.Writer) error {
	cp, err := r.CritPath()
	if err != nil {
		return err
	}
	return r.Tracer.WriteChromeWith(w, cp.HighlightSpans())
}

// WhatIf replays the run's identical seeded scenario once per
// counterfactual — each tier sped up by factor, the interconnect sped up
// by factor, the most-blamed server sped up by factor, and an unmodified
// identity control — and ranks the measured makespan deltas. Every
// replay is bare (uninstrumented) and exact, so the identity candidate's
// delta is zero by construction and every other delta is the true causal
// effect of that one change.
func (r *TraceRun) WhatIf(factor float64) (*critpath.Report, error) {
	if !(factor > 1) {
		return nil, fmt.Errorf("experiments: what-if speedup factor %v must exceed 1", factor)
	}
	cp, err := r.CritPath()
	if err != nil {
		return nil, err
	}
	makespan := func(adjust func(*cluster.Testbed)) func() (sim.Duration, error) {
		return func() (sim.Duration, error) {
			rep, err := placedIOR(r.Opts, r.Params, r.Plan, r.Config, false, adjust)
			if err != nil {
				return 0, err
			}
			return rep.End.Sub(0), nil
		}
	}
	cands := baseCandidates(factor, makespan)
	if top, ok := topServer(cp); ok {
		id := -1
		for _, s := range r.FS.Servers() {
			if s.Name == top {
				id = s.ID
			}
		}
		if id >= 0 {
			cands = append(cands, critpath.Candidate{
				Name:   fmt.Sprintf("server/%s x%g", top, factor),
				Detail: fmt.Sprintf("most-blamed server %s %g× faster", top, factor),
				Run:    makespan(func(tb *cluster.Testbed) { tb.FS.Straggle(id, 1/factor) }),
			})
		}
	}
	return critpath.WhatIf(r.End.Sub(0), cands)
}

// baseCandidates are the counterfactuals every what-if profile ranks:
// the identity control and the uniform hardware upgrades, each tier and
// the interconnect sped up by factor. replay turns a testbed adjustment
// (nil for none) into the candidate's measurement. critpath.WhatIf ranks
// by measured delta, then name, so the list's order is free.
func baseCandidates(factor float64, replay func(adjust func(*cluster.Testbed)) func() (sim.Duration, error)) []critpath.Candidate {
	slow := 1 / factor
	return []critpath.Candidate{
		{Name: "identity", Detail: "unmodified replay (must measure zero delta)", Run: replay(nil)},
		{Name: fmt.Sprintf("tier/hdd x%g", factor), Detail: fmt.Sprintf("every HDD server %g× faster", factor),
			Run: replay(func(tb *cluster.Testbed) { tb.FS.ScaleTier(device.HDD, slow) })},
		{Name: fmt.Sprintf("tier/ssd x%g", factor), Detail: fmt.Sprintf("every SSD server %g× faster", factor),
			Run: replay(func(tb *cluster.Testbed) { tb.FS.ScaleTier(device.SSD, slow) })},
		{Name: fmt.Sprintf("net x%g", factor), Detail: fmt.Sprintf("interconnect bandwidth %g× higher", factor),
			Run: replay(func(tb *cluster.Testbed) { tb.Net.ScaleBandwidth(factor) })},
	}
}

// topServer returns the server carrying the most critical-path device
// time (disk + queue).
func topServer(cp *critpath.Result) (string, bool) {
	var best string
	var bestDur sim.Duration
	for name, d := range cp.Blame.Server {
		if d > bestDur || (d == bestDur && (best == "" || name < best)) {
			best, bestDur = name, d
		}
	}
	return best, best != ""
}

// DriftWhatIfRun bundles the drift scenario's causal profile: the
// monitored run (with its advice annotated by the measured causal gain)
// and the ranked counterfactual report over the post-shift window.
type DriftWhatIfRun struct {
	Run *DriftRun
	// Report ranks the counterfactuals by their measured effect on the
	// post-shift window (ShiftAt → End) — the window the advisor's
	// restripe recommendation targets.
	Report *critpath.Report
	// Restripe is the restripe candidate's name; FigCritPath requires it
	// to rank first, proving the advisor's recommendation beats uniform
	// hardware upgrades.
	Restripe string
}

// RunDriftWhatIf executes the monitored drift scenario, then measures
// every counterfactual on the post-shift window: restriping the drifted
// region to the advisor's recommended pair (placed before the run, so
// the window shows the steady-state layout the advice would converge
// to), each tier sped up by factor, and the interconnect sped up by
// factor. The restripe outcome's measured gain is stamped into the
// monitored run's advice as CausalGain — the monitor's report then cites
// evidence, not just a model projection.
func RunDriftWhatIf(o Options, factor float64) (*DriftWhatIfRun, error) {
	if !(factor > 1) {
		return nil, fmt.Errorf("experiments: what-if speedup factor %v must exceed 1", factor)
	}
	run, err := RunDrift(o, true)
	if err != nil {
		return nil, err
	}
	adv, ok := run.Advice()
	if !ok {
		return nil, fmt.Errorf("experiments: drift run produced no advice to profile")
	}

	// The baseline and every counterfactual replay bare, so the metric —
	// the post-shift window — is measured under identical conditions.
	window := func(override map[int]harl.StripePair, adjust func(*cluster.Testbed)) func() (sim.Duration, error) {
		return func() (sim.Duration, error) {
			rep, err := runDriftWith(o, true, false, override, adjust)
			if err != nil {
				return 0, err
			}
			return rep.End.Sub(rep.ShiftAt), nil
		}
	}
	bare, err := runDriftWith(o, true, false, nil, nil)
	if err != nil {
		return nil, err
	}
	baseline := bare.End.Sub(bare.ShiftAt)
	if monitored := run.End.Sub(run.ShiftAt); monitored != baseline {
		return nil, fmt.Errorf("experiments: monitored post-shift window %v != bare %v; monitor perturbed the run", monitored, baseline)
	}

	restripe := fmt.Sprintf("restripe/r%d", adv.Region)
	cands := append(baseCandidates(factor, func(adjust func(*cluster.Testbed)) func() (sim.Duration, error) {
		return window(nil, adjust)
	}), critpath.Candidate{Name: restripe, Detail: fmt.Sprintf("region %d placed as %s per advice", adv.Region, adv.To),
		Run: window(map[int]harl.StripePair{adv.Region: adv.To}, nil)})
	rep, err := critpath.WhatIf(baseline, cands)
	if err != nil {
		return nil, err
	}

	// Stamp the measured causal gain into the monitored report's advice.
	for _, o := range rep.Outcomes {
		if o.Name != restripe {
			continue
		}
		for i := range run.Report.Advice {
			if run.Report.Advice[i].Region == adv.Region {
				run.Report.Advice[i].CausalGain = o.Gain
				run.Report.Advice[i].CausalMeasured = true
			}
		}
	}
	return &DriftWhatIfRun{Run: run, Report: rep, Restripe: restripe}, nil
}

// Advice returns the profiled run's advice for the shifted region,
// carrying the measured causal gain.
func (d *DriftWhatIfRun) Advice() (monitor.Advice, bool) { return d.Run.Advice() }

// FigCritPath validates the critical-path analyzer and the causal
// what-if profiler end to end:
//
//  1. the extracted path tiles the traced makespan exactly (coverage
//     invariant);
//  2. a bare identity replay reproduces the instrumented run's makespan
//     to the nanosecond — analysis never perturbs the simulation;
//  3. the path's per-tier device blame agrees with the cost model's
//     device-time decomposition within 10%;
//  4. on the drift scenario, the what-if profiler's top-ranked
//     counterfactual is the advisor's restripe target — measured causal
//     evidence matching the oracle's choice.
//
// The returned table shows blame shares against the model and the
// ranked counterfactual gains.
func FigCritPath(o Options) (*Table, error) {
	run, err := TraceIOR(o)
	if err != nil {
		return nil, err
	}
	cp, err := run.CritPath()
	if err != nil {
		return nil, err
	}
	if cov := cp.Coverage(); cov != cp.End.Sub(0) {
		return nil, fmt.Errorf("experiments: critical path covers %v of %v makespan", cov, cp.End)
	}
	if cp.End != run.End {
		return nil, fmt.Errorf("experiments: path makespan %v != run end %v", cp.End, run.End)
	}
	bare, err := placedIOR(run.Opts, run.Params, run.Plan, run.Config, false, nil)
	if err != nil {
		return nil, err
	}
	if bare.End != run.End {
		return nil, fmt.Errorf("experiments: bare identity replay ended %v, instrumented run %v", bare.End, run.End)
	}

	b, err := run.Breakdown()
	if err != nil {
		return nil, err
	}
	// Gate: each tier's share of critical-path device time must land
	// within 10 share points of the cost model's device-time
	// decomposition. The path only samples the latest finisher of each
	// blocking operation, so its tier split carries more variance than
	// the whole-trace totals FigTraceBreakdown compares — absolute share
	// points are the meaningful tolerance.
	model := b.ModelShares()
	measured := []float64{cp.Blame.TierShare("hdd"), cp.Blame.TierShare("ssd")}
	worst := 0.0
	for i := range measured {
		diff := measured[i] - model[i]
		if diff < 0 {
			diff = -diff
		}
		if diff > worst {
			worst = diff
		}
	}
	if worst > 0.10 {
		return nil, fmt.Errorf("experiments: critical-path tier blame deviates %.1f share points from the cost model's device-time decomposition (limit 10)", 100*worst)
	}

	dw, err := RunDriftWhatIf(o, 2)
	if err != nil {
		return nil, err
	}
	if top := dw.Report.Top(); top.Name != dw.Restripe {
		return nil, fmt.Errorf("experiments: what-if top rank is %q (%.1f%%), want advisor restripe %q", top.Name, 100*top.Gain, dw.Restripe)
	}

	t := &Table{
		Title:   "Critical path: per-tier blame vs cost model, and measured what-if gains",
		Columns: []string{"blame share %", "model share %", "whatif gain %"},
	}
	t.Add("hdd", 100*measured[0], 100*model[0], 0)
	t.Add("ssd", 100*measured[1], 100*model[1], 0)
	for i, out := range dw.Report.Outcomes {
		t.Add(fmt.Sprintf("#%d %s", i+1, out.Name), 0, 0, 100*out.Gain)
	}
	return t, nil
}
