package harl

import (
	"fmt"
	"math"

	"harl/internal/cost"
	"harl/internal/layout"
	"harl/internal/trace"
)

// Multi-tier stripe optimization — the layout half of the paper's first
// future-work item. Algorithm 2's exhaustive (h, s) grid becomes
// intractable beyond two tiers (the grid is exponential in tier count),
// so the generalized optimizer uses cyclic coordinate descent on the same
// 4 KB grid: sweep the tiers, re-optimizing one tier's stripe size with
// the others held fixed, until a full sweep improves nothing. For two
// tiers this converges to the same optima Algorithm 2 finds on all the
// workloads in the test suite; beyond two tiers it inherits coordinate
// descent's local-optimum caveat, which the doc comments call out.

// TieredOptimizer searches per-tier stripe sizes under a MultiParams
// model.
type TieredOptimizer struct {
	Params cost.MultiParams
	// Step is the grid granularity; 0 means DefaultStep.
	Step int64
	// MaxRequests caps scored requests per region, as in Optimizer.
	MaxRequests int
	// MaxSweeps bounds the coordinate-descent sweeps; 0 means 8.
	MaxSweeps int
}

// OptimizeRegion returns the per-tier stripe sizes minimizing the summed
// model cost of the region's requests, and that cost.
func (o TieredOptimizer) OptimizeRegion(records []trace.Record, base int64, avg float64) ([]int64, float64) {
	if err := o.Params.Validate(); err != nil {
		panic(err)
	}
	step, sample, rBar := Optimizer{Step: o.Step, MaxRequests: o.MaxRequests}.grid(records, avg)
	sweeps := o.MaxSweeps
	if sweeps == 0 {
		sweeps = 8
	}

	score := func(s []int64) float64 {
		total := 0.0
		for _, r := range sample {
			local := r.Offset - base
			if local < 0 {
				local = 0
			}
			total += o.Params.RequestCost(r.Op, local, r.Size, s)
		}
		return total
	}

	// Coordinate descent can stall on joint moves (raising one tier's
	// share alone inflates the network term before the transfer term
	// rebalances), so it runs from several deterministic starting points
	// and keeps the best fixpoint.
	var bestStripes []int64
	best := math.Inf(1)
	for _, start := range o.startingPoints(step, rBar) {
		stripes := append([]int64(nil), start...)
		cur := score(stripes)
		for sweep := 0; sweep < sweeps; sweep++ {
			improved := false
			for ti, tier := range o.Params.Tiers {
				if tier.Count == 0 {
					continue
				}
				trial := append([]int64(nil), stripes...)
				bestStripe := stripes[ti]
				for s := int64(0); s <= rBar; s += step {
					trial[ti] = s
					if !usable(o.Params, trial) {
						continue
					}
					if c := score(trial); c < cur {
						cur = c
						bestStripe = s
						improved = true
					}
				}
				stripes[ti] = bestStripe
			}
			if !improved {
				break
			}
		}
		if cur < best {
			best = cur
			bestStripes = stripes
		}
	}
	return bestStripes, best
}

// startingPoints yields the descent's initial configurations: the
// minimal all-one-step spread, and speed-proportional splits (stripe
// share inversely proportional to the tier's read β) at two scales.
func (o TieredOptimizer) startingPoints(step, rBar int64) [][]int64 {
	tiers := o.Params.Tiers
	minimal := make([]int64, len(tiers))
	for i, t := range tiers {
		if t.Count > 0 {
			minimal[i] = step
		}
	}
	points := [][]int64{minimal}

	var weightSum float64
	weights := make([]float64, len(tiers))
	for i, t := range tiers {
		if t.Count > 0 && t.ReadBeta > 0 {
			weights[i] = 1 / t.ReadBeta
			weightSum += weights[i] * float64(t.Count)
		}
	}
	if weightSum <= 0 {
		return points
	}
	for _, scale := range []float64{0.5, 1.0} {
		prop := make([]int64, len(tiers))
		for i, t := range tiers {
			if t.Count == 0 || weights[i] == 0 {
				continue
			}
			s := int64(float64(rBar) * scale * weights[i] / weightSum)
			s -= s % step
			if s < step {
				s = step
			}
			if s > rBar {
				s = rBar
			}
			prop[i] = s
		}
		if usable(o.Params, prop) {
			points = append(points, prop)
		}
	}
	return points
}

// usable reports whether the assignment stores data somewhere.
func usable(p cost.MultiParams, stripes []int64) bool {
	for i, t := range p.Tiers {
		if t.Count > 0 && stripes[i] > 0 {
			return true
		}
	}
	return false
}

// TieredRSTEntry is one region of a multi-tier Region Stripe Table.
type TieredRSTEntry struct {
	Offset  int64
	End     int64
	Stripes []int64 // per tier
}

// TieredRST generalizes the RST to any tier count.
type TieredRST struct {
	Counts  []int // servers per tier (fixed for the whole table)
	Entries []TieredRSTEntry
}

// Validate checks contiguity and stripe sanity.
func (t *TieredRST) Validate() error {
	if len(t.Counts) == 0 {
		return fmt.Errorf("harl: tiered RST has no tiers")
	}
	for i, e := range t.Entries {
		if e.End <= e.Offset {
			return fmt.Errorf("harl: tiered RST entry %d has empty range", i)
		}
		if len(e.Stripes) != len(t.Counts) {
			return fmt.Errorf("harl: tiered RST entry %d has %d stripes for %d tiers", i, len(e.Stripes), len(t.Counts))
		}
		if err := (layout.Tiered{Counts: t.Counts, Stripes: e.Stripes}).Validate(); err != nil {
			return fmt.Errorf("harl: tiered RST entry %d: %w", i, err)
		}
		if i == 0 {
			if e.Offset != 0 {
				return fmt.Errorf("harl: tiered RST must start at 0")
			}
		} else if e.Offset != t.Entries[i-1].End {
			return fmt.Errorf("harl: tiered RST entry %d not contiguous", i)
		}
	}
	return nil
}

// TieredPlanner runs region division plus the multi-tier optimizer.
type TieredPlanner struct {
	Params      cost.MultiParams
	Step        int64
	ChunkSize   int64
	MaxRequests int
}

// TieredPlan is the multi-tier analysis output.
type TieredPlan struct {
	RST       TieredRST
	ModelCost float64
	Threshold float64
}

// Analyze divides the trace into regions (Algorithm 1 with adaptive
// threshold) and optimizes each region's per-tier stripes.
func (pl TieredPlanner) Analyze(tr *trace.Trace) (*TieredPlan, error) {
	if err := pl.Params.Validate(); err != nil {
		return nil, err
	}
	regions, threshold, groups, err := DivideTrace(tr, pl.ChunkSize, 0)
	if err != nil {
		return nil, err
	}
	opt := TieredOptimizer{Params: pl.Params, Step: pl.Step, MaxRequests: pl.MaxRequests}
	plan := &TieredPlan{Threshold: threshold}
	plan.RST.Counts = pl.Params.Counts()
	total := 0.0
	for i, reg := range regions {
		stripes, c := opt.OptimizeRegion(groups[i], reg.Offset, reg.AvgSize)
		total += c
		plan.RST.Entries = append(plan.RST.Entries, TieredRSTEntry{
			Offset: reg.Offset, End: reg.End, Stripes: stripes,
		})
	}
	plan.ModelCost = total
	if err := plan.RST.Validate(); err != nil {
		return nil, fmt.Errorf("harl: produced invalid tiered RST: %w", err)
	}
	if math.IsInf(plan.ModelCost, 0) {
		return nil, fmt.Errorf("harl: tiered optimization diverged")
	}
	return plan, nil
}
