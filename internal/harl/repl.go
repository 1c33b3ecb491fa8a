package harl

import (
	"fmt"
	"math"

	"harl/internal/cost"
	"harl/internal/region"
	"harl/internal/trace"
)

// ReplAxis opens the planner's third optimization axis: alongside the
// per-region stripe pair (h, s), choose a per-region replication factor
// r in [1, MaxR]. The objective adds two durability terms to the modeled
// I/O cost of the region's traced requests:
//
//   - an unavailability penalty, UnavailPenalty · requests · FaultRate^r
//     — each extra replica multiplies the chance that at least one copy
//     of a region byte survives, so the penalty decays geometrically;
//   - a rebuild charge, RebuildWeight · FaultRate · r ·
//     Params.RebuildCost(span) — more replicas mean more copies to
//     re-create after every crash.
//
// Replicated writes also pay their forwarding cost inside the model
// itself (cost.Params.R), so write-heavy regions lean low and hot
// read-mostly regions can afford durability. Ties choose the smaller r;
// a nil axis (or MaxR <= 1) reproduces the unreplicated planner
// bit-for-bit.
type ReplAxis struct {
	// MaxR caps the per-region replication factor; values above the
	// cluster size are clamped by cost.Params.Validate.
	MaxR int
	// FaultRate is the modeled per-replica chance of loss during the
	// region's lifetime (dimensionless, in [0, 1]).
	FaultRate float64
	// UnavailPenalty is the modeled cost (seconds) of one request
	// hitting a region whose every replica is lost.
	UnavailPenalty float64
	// RebuildWeight scales the rebuild charge; 0 disables it.
	RebuildWeight float64
}

// Validate reports whether the axis is usable.
func (a *ReplAxis) Validate() error {
	switch {
	case a.MaxR < 1:
		return fmt.Errorf("harl: ReplAxis.MaxR must be >= 1, got %d", a.MaxR)
	case a.FaultRate < 0 || a.FaultRate > 1:
		return fmt.Errorf("harl: ReplAxis.FaultRate %v outside [0,1]", a.FaultRate)
	case a.UnavailPenalty < 0 || a.RebuildWeight < 0:
		return fmt.Errorf("harl: negative ReplAxis penalty")
	}
	return nil
}

// durabilityCharge is the r-dependent part of the objective that the
// I/O cost model does not see.
func (a *ReplAxis) durabilityCharge(p cost.Params, requests int, span int64, r int) float64 {
	charge := float64(requests) * a.UnavailPenalty * math.Pow(a.FaultRate, float64(r))
	charge += a.RebuildWeight * a.FaultRate * float64(r) * p.RebuildCost(span)
	return charge
}

// optimizeRegionRepl runs the (h, s) grid once per candidate r and picks
// the r minimizing modeled cost plus durability charge. The returned
// search sums the per-r counters (the region's search really did all
// that work), and its Best and Cost are the winner's.
func (pl Planner) optimizeRegionRepl(opt Optimizer, group []trace.Record, reg region.Region) (RegionSearch, int64) {
	a := pl.Repl
	maxR := min(a.MaxR, opt.Params.Servers())
	span := reg.End - reg.Offset
	var sum RegionSearch
	var bestObj float64
	bestR := int64(1)
	for r := 1; r <= maxR; r++ {
		ropt := opt
		ropt.Params.R = r
		rs := ropt.optimize(group, reg.Offset, reg.AvgSize)
		sum.Requests = rs.Requests
		sum.Sampled = rs.Sampled
		sum.addWork(rs)
		obj := rs.Cost + a.durabilityCharge(opt.Params, len(group), span, r)
		if r == 1 || obj < bestObj {
			sum.Best, sum.Cost, bestObj, bestR = rs.Best, rs.Cost, obj, int64(r)
		}
	}
	return sum, bestR
}
