package monitor

import (
	"fmt"
	"io"
	"sort"

	"harl/internal/harl"
	"harl/internal/sim"
	"harl/internal/trace"
)

// RegionHealth is one region's entry in a health report.
type RegionHealth struct {
	Region int
	Bounds [2]int64 // [offset, end)
	Pair   harl.StripePair

	ReadBytes  int64
	WriteBytes int64
	Requests   int64 // cumulative observed fragments

	// Window is the last scored window (zero if none reached
	// MinRequests); Scores its drift verdict.
	Window WindowStats
	Scores DriftScores
	Scored bool

	Stale   bool
	StaleAt sim.Time // last time the region was flagged (if ever)
}

// Advice is one region's replan recommendation: re-stripe from the
// planned pair to the pair the observed window would choose, with the
// modeled costs backing the call. The monitor only recommends — wiring
// the advice into migrate.Restripe (or ignoring it) is the operator's
// decision; nothing triggers automatically.
type Advice struct {
	Region int
	File   string // physical region file (R2F naming), the Restripe target
	From   harl.StripePair
	To     harl.StripePair
	// CurCost and BestCost are the modeled costs of the advisor's window
	// sample under From and To; Gain is (Cur-Best)/Cur.
	CurCost  float64
	BestCost float64
	Gain     float64

	// CausalGain, when CausalMeasured is set, is the fraction of the
	// post-shift window the what-if profiler measured the restripe to
	// save by actually replaying the scenario with the recommended pair
	// (critpath.WhatIf) — evidence, not a model projection.
	CausalGain     float64
	CausalMeasured bool
}

// HealthReport is the monitor's layout-health verdict at a point in
// virtual time.
type HealthReport struct {
	At      sim.Time
	Windows int
	Regions []RegionHealth
	// Advice holds one entry per stale region whose projected gain
	// cleared the threshold, sorted by descending gain.
	Advice []Advice
}

// Healthy reports whether no region in the report is stale.
func (r *HealthReport) Healthy() bool {
	for _, reg := range r.Regions {
		if reg.Stale {
			return false
		}
	}
	return true
}

// Report flushes pending windows and produces the layout-health report:
// per-region drift state plus replan advice for stale regions. The
// logical file name parameterizes the advice's physical file targets
// (R2F naming: name.r<i>).
func (m *Monitor) Report(name string) *HealthReport {
	if m == nil {
		return &HealthReport{}
	}
	m.Flush()
	rep := &HealthReport{At: m.engine.Now(), Windows: m.windows}
	for i := range m.regions {
		r := &m.regions[i]
		fp := m.fp.Regions[i]
		rh := RegionHealth{
			Region:     i,
			Bounds:     [2]int64{fp.Offset, fp.End},
			Pair:       fp.Pair(),
			ReadBytes:  r.readBytes,
			WriteBytes: r.writeBytes,
			Requests:   r.readOps + r.writeOps,
			Window:     r.last,
			Scores:     r.lastScores,
			Scored:     r.scored,
			Stale:      r.stale,
			StaleAt:    r.staleAt,
		}
		rep.Regions = append(rep.Regions, rh)
		if r.stale {
			if adv, ok := m.advise(i, name); ok {
				rep.Advice = append(rep.Advice, adv)
			}
		}
	}
	sort.Slice(rep.Advice, func(a, b int) bool {
		if rep.Advice[a].Gain != rep.Advice[b].Gain {
			return rep.Advice[a].Gain > rep.Advice[b].Gain
		}
		return rep.Advice[a].Region < rep.Advice[b].Region
	})
	return rep
}

// advise re-runs Algorithm 2 over region i's last window sample and
// compares the winner against the planned pair under the same cost
// model. ok is false when the sample is empty, the evaluator rejects the
// planned pair, or the gain misses the threshold.
func (m *Monitor) advise(i int, name string) (Advice, bool) {
	r := &m.regions[i]
	if len(r.lastSample) == 0 {
		return Advice{}, false
	}
	fp := m.fp.Regions[i]

	// The sample's offsets are region-local (each region is its own
	// physical file), so the optimizer runs with base 0 — exactly how a
	// fresh plan would treat this region's file.
	records := make([]trace.Record, len(r.lastSample))
	var sizeSum float64
	for k, s := range r.lastSample {
		records[k] = trace.Record{Op: s.Op, Offset: s.Off, Size: s.Size, End: 1}
		sizeSum += float64(s.Size)
	}
	avg := sizeSum / float64(len(records))

	opt := harl.Optimizer{Params: m.params}
	best, bestCost := opt.OptimizeRegion(records, 0, avg)

	ev, err := m.params.NewEvaluator(fp.H, fp.S)
	if err != nil {
		return Advice{}, false
	}
	var cur float64
	for _, rec := range records {
		cur += ev.RequestCost(rec.Op, rec.Offset, rec.Size)
	}
	if cur <= 0 {
		return Advice{}, false
	}
	gain := (cur - bestCost) / cur
	if gain < m.cfg.GainThreshold || best == fp.Pair() {
		return Advice{}, false
	}
	return Advice{
		Region:   i,
		File:     fmt.Sprintf("%s.r%d", name, i),
		From:     fp.Pair(),
		To:       best,
		CurCost:  cur,
		BestCost: bestCost,
		Gain:     gain,
	}, true
}

// WriteText renders the report as a fixed-order plain-text table — the
// harlctl monitor output.
func (r *HealthReport) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "layout health at %v (%d windows)\n", r.At, r.Windows); err != nil {
		return err
	}
	for _, reg := range r.Regions {
		verdict := "ok"
		if reg.Stale {
			verdict = fmt.Sprintf("STALE since %v", reg.StaleAt)
		} else if !reg.Scored {
			verdict = "no data"
		}
		if _, err := fmt.Fprintf(w, "  r%d [%d,%d) %s: %s\n",
			reg.Region, reg.Bounds[0], reg.Bounds[1], reg.Pair, verdict); err != nil {
			return err
		}
		if reg.Scored {
			if _, err := fmt.Fprintf(w, "     window: %d reqs, mean %.0fB, cv %.3f, write-mix %.2f | drift cv %.2f size %.2f mix %.2f\n",
				reg.Window.Requests, reg.Window.MeanSize, reg.Window.CV, reg.Window.WriteMix,
				reg.Scores.CVDivergence, reg.Scores.SizeDistance, reg.Scores.MixShift); err != nil {
				return err
			}
		}
	}
	if len(r.Advice) == 0 {
		_, err := fmt.Fprintln(w, "  advice: none")
		return err
	}
	for _, a := range r.Advice {
		causal := ""
		if a.CausalMeasured {
			causal = fmt.Sprintf(", causal gain %.1f%% (measured)", 100*a.CausalGain)
		}
		if _, err := fmt.Fprintf(w, "  advice: restripe %s (r%d) %s -> %s, modeled gain %.1f%%%s\n",
			a.File, a.Region, a.From, a.To, 100*a.Gain, causal); err != nil {
			return err
		}
	}
	return nil
}
