// Package baselines implements the closest related layout schemes the
// paper compares against conceptually (Section II), so experiments can
// position HARL against its own lineage rather than only against fixed
// stripes:
//
//   - CARL [31] places whole high-cost file regions onto SSD servers and
//     everything else onto HDD servers — a region is never striped across
//     both classes, the restriction HARL removes;
//   - segment-level layout [10] divides the file into fixed chunks with a
//     per-chunk stripe size on a homogeneous view of the servers (exposed
//     through the region package's FixedDivide plus Algorithm 2, used by
//     the experiments' ablations).
package baselines

import (
	"fmt"
	"slices"
	"sort"

	"harl/internal/cost"
	"harl/internal/harl"
	"harl/internal/trace"
)

// CARLPlanner builds a CARL-style region placement: regions are divided
// exactly as HARL divides them, scored with the same cost model, and the
// highest-cost-density regions are placed SSD-only until the SSD byte
// budget runs out; every other region is HDD-only. Stripe sizes within
// the chosen class come from Algorithm 2 restricted to that class.
type CARLPlanner struct {
	Params cost.Params
	// SSDBudget caps the bytes of file regions placed on SServers (the
	// paper's CARL works under an SSD space constraint). Zero means a
	// quarter of the file, a typical cache provisioning.
	SSDBudget int64
	// ChunkSize, Step, MaxRequests, Parallelism mirror harl.Planner.
	ChunkSize   int64
	Step        int64
	MaxRequests int
	Parallelism int
}

// Analyze produces the CARL placement as an RST (regions are {0,s} or
// {h,0} pairs — never mixed).
func (pl CARLPlanner) Analyze(tr *trace.Trace) (*harl.Plan, error) {
	if err := pl.Params.Validate(); err != nil {
		return nil, err
	}
	if tiers := pl.Params.Tiers; len(tiers) != 2 || tiers[0].Count == 0 || tiers[1].Count == 0 {
		return nil, fmt.Errorf("baselines: CARL needs both server classes")
	}
	regions, threshold, groups, err := harl.DivideTrace(tr, pl.ChunkSize, 0)
	if err != nil {
		return nil, err
	}

	budget := pl.SSDBudget
	if budget == 0 {
		budget = regions[len(regions)-1].End / 4
	}

	// Score each region's cost density (model cost per byte) under an
	// SSD-only placement: the regions that gain most per SSD byte go
	// first, CARL's selection criterion.
	hOnly := harl.Optimizer{Params: hdOnlyParams(pl.Params), Step: pl.Step, MaxRequests: pl.MaxRequests, Parallelism: pl.Parallelism}
	sOnly := harl.Optimizer{Params: ssdOnlyParams(pl.Params), Step: pl.Step, MaxRequests: pl.MaxRequests, Parallelism: pl.Parallelism}

	type scored struct {
		idx          int
		hPair, sPair harl.StripePair
		hCost, sCost float64
	}
	items := make([]scored, len(regions))
	for i, reg := range regions {
		hp, hc := hOnly.OptimizeRegion(groups[i], reg.Offset, reg.AvgSize)
		sp, sc := sOnly.OptimizeRegion(groups[i], reg.Offset, reg.AvgSize)
		items[i] = scored{idx: i, hPair: hp, sPair: sp, hCost: hc, sCost: sc}
	}
	// Sort by cost saved per SSD byte, descending.
	order := append([]scored(nil), items...)
	sort.SliceStable(order, func(a, b int) bool {
		da := (order[a].hCost - order[a].sCost) / float64(regions[order[a].idx].Length())
		db := (order[b].hCost - order[b].sCost) / float64(regions[order[b].idx].Length())
		return da > db
	})
	onSSD := make([]bool, len(regions))
	remaining := budget
	for _, it := range order {
		length := regions[it.idx].Length()
		if it.sCost < it.hCost && length <= remaining {
			onSSD[it.idx] = true
			remaining -= length
		}
	}

	plan := &harl.Plan{Threshold: threshold}
	for i, reg := range regions {
		it := items[i]
		pair := it.hPair
		cost := it.hCost
		if onSSD[i] {
			pair = it.sPair
			cost = it.sCost
		}
		plan.Regions = append(plan.Regions, harl.PlannedRegion{
			Region:    reg,
			Stripes:   pair,
			ModelCost: cost,
			WriteMix:  harl.ReadWriteMix(groups[i]),
		})
		plan.RST.Entries = append(plan.RST.Entries, harl.RSTEntry{
			Offset: reg.Offset, End: reg.End, H: pair.H, S: pair.S,
		})
	}
	plan.RST.Merge()
	if err := plan.RST.Validate(); err != nil {
		return nil, fmt.Errorf("baselines: produced invalid RST: %w", err)
	}
	return plan, nil
}

// hdOnlyParams restricts the model to the HServer class (N = 0), so
// Algorithm 2 searches h alone. It empties a copy of the tiers: p shares
// them with the caller.
func hdOnlyParams(p cost.Params) cost.Params {
	p.Tiers = slices.Clone(p.Tiers)
	p.Tiers[1].Count = 0
	return p
}

// ssdOnlyParams restricts the model to the SServer class (M = 0).
func ssdOnlyParams(p cost.Params) cost.Params {
	p.Tiers = slices.Clone(p.Tiers)
	p.Tiers[0].Count = 0
	return p
}

// SSDBytes reports how many file bytes an RST places on SServers for a
// system of m HServers and n SServers — test and report helper.
func SSDBytes(rst *harl.RST, m, n int) int64 {
	var ssd int64
	for _, e := range rst.Entries {
		length := e.End - e.Offset
		round := int64(m)*e.H + int64(n)*e.S
		if round == 0 {
			continue
		}
		ssd += length * (int64(n) * e.S) / round
	}
	return ssd
}
