package harl

import (
	"fmt"
	"time"

	"harl/internal/cost"
	"harl/internal/region"
	"harl/internal/trace"
)

// Planner is the whole Analysis Phase: trace in, Region Stripe Table out.
// Analyze plans a two-tier system into an RST; AnalyzeTiered plans any
// tier count into a TieredRST.
type Planner struct {
	// Params is the calibrated cost model (Section III-G measures these
	// against one server of each class and a node pair).
	Params cost.Params
	// Step is Algorithm 2's stripe grid; 0 means DefaultStep (4 KB).
	Step int64
	// ChunkSize bounds the region count via the fixed-size division
	// comparison of Section III-C; 0 means region.DefaultChunkSize (64 MB).
	ChunkSize int64
	// MaxRequests caps the requests scored per region (see Optimizer).
	MaxRequests int
	// Threshold fixes the CV threshold; 0 divides adaptively, starting
	// from region.DefaultThreshold (100%) (see DivideTrace).
	Threshold float64
	// Parallelism bounds the Analysis Phase worker pool; 0 means
	// GOMAXPROCS, 1 forces the serial pipeline. The budget is split
	// between concurrent regions and each region's grid search, and the
	// resulting plan is bit-identical at every setting.
	Parallelism int

	// Profile, when non-nil, is filled in by Analyze with the search's
	// per-region and per-worker profile (see profile.go). Profiling never
	// changes the produced plan.
	Profile *SearchProfile

	// noCache and noPrune ride through to the Optimizer; benchmark and
	// test ablation knobs only.
	noCache bool
	noPrune bool
}

// PlannedRegion is one analyzed region with its chosen layout.
type PlannedRegion struct {
	region.Region
	Stripes   StripePair
	ModelCost float64 // summed model cost of the scored requests
	WriteMix  float64 // fraction of region bytes written
}

// Plan is the Analysis Phase output: the regions, the RST they induce,
// the CV threshold finally used, and the workload fingerprint frozen for
// online drift detection.
type Plan struct {
	Regions   []PlannedRegion
	RST       RST
	Threshold float64
	// Fingerprint summarizes the traced workload per merged RST entry —
	// the assumptions the online monitor checks the live workload against.
	Fingerprint *PlanFingerprint
}

// Analyze runs region division (Algorithm 1 with adaptive threshold) and
// per-region stripe optimization (Algorithm 2) over a trace on a
// two-tier system. The trace is copied and offset-sorted internally; the
// input is not modified.
//
// Regions share nothing — each owns its request group — so they are
// optimized concurrently on a pool of Parallelism workers; leftover
// budget (fewer regions than workers) goes to each region's grid search.
func (pl Planner) Analyze(tr *trace.Trace) (*Plan, error) {
	if k := len(pl.Params.Tiers); k != 2 {
		return nil, fmt.Errorf("harl: Analyze plans two tiers, got %d (use AnalyzeTiered)", k)
	}
	a, err := pl.analyze(tr)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Threshold: a.threshold, Regions: make([]PlannedRegion, len(a.regions))}
	for i, reg := range a.regions {
		rs := a.searches[i]
		plan.Regions[i] = PlannedRegion{
			Region:    reg,
			Stripes:   pairOf(rs.Best),
			ModelCost: rs.Cost,
			WriteMix:  ReadWriteMix(a.groups[i]),
		}
		plan.RST.Entries = append(plan.RST.Entries, RSTEntry{
			Offset: reg.Offset,
			End:    reg.End,
			H:      rs.Best[0],
			S:      rs.Best[1],
		})
	}
	plan.RST.Merge()
	if err := plan.RST.Validate(); err != nil {
		return nil, fmt.Errorf("harl: produced invalid RST: %w", err)
	}
	// The fingerprint aggregates per-region request groups across the
	// merge, so it aligns with the RST the placing phase actually uses.
	plan.Fingerprint = plan.fingerprint(a.groups)
	return plan, nil
}

// AnalyzeTiered is Analyze for any tier count: it divides the trace the
// same way and optimizes each region's per-tier stripes (coordinate
// descent beyond two tiers), producing a tiered RST.
func (pl Planner) AnalyzeTiered(tr *trace.Trace) (*TieredPlan, error) {
	a, err := pl.analyze(tr)
	if err != nil {
		return nil, err
	}
	plan := &TieredPlan{Threshold: a.threshold}
	plan.RST.Counts = pl.Params.Counts()
	for i, reg := range a.regions {
		rs := a.searches[i]
		plan.ModelCost += rs.Cost
		plan.RST.Entries = append(plan.RST.Entries, TieredRSTEntry{
			Offset: reg.Offset, End: reg.End, Stripes: rs.Best,
		})
	}
	if err := plan.RST.Validate(); err != nil {
		return nil, fmt.Errorf("harl: produced invalid tiered RST: %w", err)
	}
	return plan, nil
}

// analysis is what both plan shapes are built from: the divided regions,
// their request groups, the CV threshold used, and each region's search.
type analysis struct {
	regions   []region.Region
	threshold float64
	groups    [][]trace.Record
	searches  []RegionSearch
}

// analyze is the Analysis Phase shared by Analyze and AnalyzeTiered: it
// validates the planner, divides the trace, optimizes the regions on the
// worker pool and fills in the Profile.
func (pl Planner) analyze(tr *trace.Trace) (*analysis, error) {
	if err := pl.Params.Validate(); err != nil {
		return nil, err
	}
	regions, threshold, groups, err := DivideTrace(tr, pl.ChunkSize, pl.Threshold)
	if err != nil {
		return nil, err
	}

	// Split the worker budget: one pool slot per region, and whatever is
	// left over parallelizes each region's candidate grid (a single huge
	// region gets the whole budget for its grid search).
	budget := workers(pl.Parallelism)
	pool := min(budget, len(regions))
	opt := Optimizer{
		Params:      pl.Params,
		Step:        pl.Step,
		MaxRequests: pl.MaxRequests,
		Parallelism: max(budget/pool, 1),
		noCache:     pl.noCache,
		noPrune:     pl.noPrune,
	}

	prof := pl.Profile
	var analyzeStart time.Time
	if prof != nil {
		prof.Regions = make([]RegionSearch, len(regions))
		prof.Workers = make([]WorkerLoad, pool)
		for w := range prof.Workers {
			prof.Workers[w].Worker = w
		}
		analyzeStart = time.Now()
	}

	a := &analysis{
		regions:   regions,
		threshold: threshold,
		groups:    groups,
		searches:  make([]RegionSearch, len(regions)),
	}
	scatter(pool, len(regions), func(w, i int) {
		reg := regions[i]
		var t0 time.Time
		if prof != nil {
			t0 = time.Now()
		}
		rs := opt.optimize(groups[i], reg.Offset, reg.AvgSize)
		if prof != nil {
			// Each scatter worker index runs on exactly one goroutine, so
			// Workers[w] is written race-free.
			rs.Region = i
			rs.WallNS = time.Since(t0).Nanoseconds()
			prof.Regions[i] = rs
			prof.Workers[w].Regions++
			prof.Workers[w].WallNS += rs.WallNS
		}
		a.searches[i] = rs
	})
	if prof != nil {
		prof.WallNS = time.Since(analyzeStart).Nanoseconds()
	}
	return a, nil
}

// DivideTrace is the Analysis Phase's front half, shared by every
// planner: it copies the trace, sorts it by offset, divides it into
// regions (Algorithm 1) and assigns each region its requests. A zero
// threshold divides adaptively, raising the CV threshold from
// region.DefaultThreshold until the region count is within the
// fixed-size division by chunkSize (0 means region.DefaultChunkSize); a
// non-zero one divides at exactly that threshold. It returns the regions,
// the threshold used and the per-region request groups, and rejects an
// empty trace, a negative threshold and a region with no requests.
func DivideTrace(tr *trace.Trace, chunkSize int64, threshold float64) ([]region.Region, float64, [][]trace.Record, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, 0, nil, fmt.Errorf("harl: empty trace")
	}
	if threshold < 0 {
		return nil, 0, nil, fmt.Errorf("harl: negative CV threshold %v", threshold)
	}
	sorted := &trace.Trace{Records: append([]trace.Record(nil), tr.Records...)}
	sorted.SortByOffset()
	chunk := chunkSize
	if chunk == 0 {
		chunk = region.DefaultChunkSize
	}
	var regions []region.Region
	used := threshold
	if threshold == 0 {
		regions, used = region.DivideAdaptive(sorted.Records, chunk, 0)
	} else {
		regions = region.Divide(sorted.Records, threshold, 0)
	}
	groups := region.AssignRequests(regions, sorted.Records)
	for i, reg := range regions {
		if len(groups[i]) == 0 {
			// A region with no requests can only arise from a malformed
			// division; fail loudly rather than striping blind.
			return nil, 0, nil, fmt.Errorf("harl: region %d (%v) has no requests", i, reg)
		}
	}
	return regions, used, groups, nil
}
