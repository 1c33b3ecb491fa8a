// Package harl implements the paper's contribution: the
// heterogeneity-aware region-level (HARL) data layout scheme.
//
// HARL proceeds in three phases (Fig. 3):
//
//  1. Tracing — an instrumented run collects every file request
//     (package trace);
//  2. Analysis — the file is divided into regions of similar workload
//     (package region, Algorithm 1), and for each region the optimal
//     stripe-size pair (H for HServers, S for SServers) is found by
//     exhaustive grid search scored with the analytical cost model
//     (package cost, Algorithm 2). The result is the Region Stripe Table
//     (RST), with adjacent same-optimum regions merged;
//  3. Placing — the I/O middleware (package mpiio) maps each region to
//     its own physical PFS file striped with the region's pair, recorded
//     in the region-to-file table (R2F).
//
// This package owns phase 2 and the two tables.
//
// # Parallel search architecture
//
// The paper accepts Algorithm 2's exhaustive O((R̄/step)²) grid walk as
// an off-line cost (Section III-E); this implementation makes that cost
// scale with the hardware while provably returning the same plan:
//
//   - Region level: regions share nothing — each owns its request group —
//     so Planner.Analyze optimizes them concurrently on a worker pool
//     bounded by the Parallelism option (0 means GOMAXPROCS).
//   - Grid level: within a region, Optimizer.OptimizeRegion shards the
//     (h, s) candidate grid into columns (one h value each) that workers
//     claim dynamically, each keeping a private running best; a final
//     reduce merges the per-worker bests. Single-huge-region traces (IOR
//     uniform) therefore scale too.
//   - Cost-evaluation cache: each worker scores candidates through a
//     cost.Evaluator, which validates the striping geometry once per
//     candidate and memoizes the sub-request distribution of each
//     distinct (offset mod round, size) request shape — distributions
//     are periodic in the striping round, so a region's stripe-aligned
//     requests collapse to a few geometry computations.
//   - Pruning: per-request costs are non-negative, so a candidate's
//     partial sum is an admissible lower bound on its total; evaluation
//     aborts as soon as the partial sum strictly exceeds the worker's
//     running best. Candidates are visited in a pruning-friendly order
//     (large s first within each h column) so a strong bound appears
//     early.
//   - Shape bound: cost.Evaluator.Bound floors a request's cost over
//     every offset from its (op, size) alone. Each worker groups its
//     sample by (op, size) once per region; a candidate whose summed
//     group floors exceed the running best is rejected before any
//     request is scored, and while scoring, the partial sum plus the
//     least group floor per remaining request prunes earlier than the
//     partial sum alone. Both tests carry a relative slack that covers
//     the float rounding of the two differently ordered sums, so they
//     never prune a tie. On the IOR four-region workload this cuts
//     model evaluations from 7.3M to under 0.2M.
//
// Determinism guarantee: the search result is bit-identical at every
// Parallelism setting. Candidate costs are summed in the same per-request
// order everywhere, cached and uncached evaluations share one arithmetic
// path, ties are broken toward the lexicographically smallest (h, s)
// rather than arrival order, and pruning only discards candidates whose
// computed total provably exceeds the running best.
package harl

import (
	"fmt"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/trace"
)

// StripePair is one candidate layout for a region: stripe size H on every
// HServer and S on every SServer. H == 0 places the region on SServers
// only; S == 0 on HServers only.
type StripePair struct {
	H int64
	S int64
}

// String renders the pair the way the paper labels layouts, e.g. "36K-148K".
func (sp StripePair) String() string {
	return fmt.Sprintf("%s-%s", kb(sp.H), kb(sp.S))
}

func kb(b int64) string {
	if b%1024 == 0 {
		return fmt.Sprintf("%dK", b/1024)
	}
	return fmt.Sprintf("%dB", b)
}

// DefaultStep is Algorithm 2's stripe-size grid granularity (4 KB). Finer
// steps give more precise stripe sizes at more search cost.
const DefaultStep int64 = 4 << 10

// DefaultMaxRequests bounds how many of a region's requests Algorithm 2
// scores per candidate pair. Regions with more requests are sampled with
// an even stride; request patterns within a region are homogeneous by
// construction (Algorithm 1 split them on workload change), so a sample
// preserves the optimum while keeping the off-line search fast.
const DefaultMaxRequests = 128

// Optimizer runs Algorithm 2: exhaustive (h, s) grid search scored by the
// cost model, sharded across workers with memoized cost evaluations and
// lower-bound pruning (see the package doc).
type Optimizer struct {
	Params cost.Params
	// Step is the grid granularity; 0 means DefaultStep.
	Step int64
	// MaxRequests caps the scored requests per region; 0 means
	// DefaultMaxRequests, negative means no cap.
	MaxRequests int
	// Parallelism bounds the goroutines sharding the candidate grid;
	// 0 means GOMAXPROCS, 1 forces the serial search. The result is
	// bit-identical at every setting.
	Parallelism int

	// noCache and noPrune disable the evaluation cache and the
	// lower-bound early exits (partial sum and shape bound). They exist
	// only so benchmarks and tests can measure/verify each layer; both
	// paths return identical results.
	noCache bool
	noPrune bool
}

func (o Optimizer) step() int64 {
	if o.Step == 0 {
		return DefaultStep
	}
	return o.Step
}

// OptimizeRegion finds the stripe pair minimizing the summed model cost of
// the region's requests (offsets are file-absolute; base is the region's
// start offset, subtracted to get region-local offsets, since each region
// becomes its own physical file). avg is the region's average request
// size, the R̄ bound of Algorithm 2's loops. It returns the best pair and
// its total model cost.
func (o Optimizer) OptimizeRegion(records []trace.Record, base int64, avg float64) (StripePair, float64) {
	rs := o.optimize(records, base, avg)
	return rs.Best, rs.Cost
}

// optimize is the grid search itself. It returns the search's profile,
// whose Best and Cost are OptimizeRegion's result; the counters are
// reproducible only at Parallelism 1 (see profile.go).
func (o Optimizer) optimize(records []trace.Record, base int64, avg float64) RegionSearch {
	step, sample, rBar := o.grid(records, avg)
	cols := o.columns(rBar, step)
	p := workers(o.Parallelism)
	ws := make([]*searchWorker, min(p, max(len(cols), 1)))
	for i := range ws {
		ws[i] = o.newSearchWorker(sample, base)
	}
	scatter(len(ws), len(cols), func(w, i int) { ws[w].scan(cols[i]) })

	best, bestCost := ws[0].best, ws[0].bestCost
	for _, w := range ws[1:] {
		if better(w.bestCost, w.best, bestCost, best) {
			best, bestCost = w.best, w.bestCost
		}
	}
	rs := RegionSearch{Requests: len(records), Sampled: len(sample), Best: best, Cost: bestCost}
	for _, w := range ws {
		rs.addWork(w.work)
	}
	return rs
}

// grid checks a region's search inputs and returns the search's grid
// step, the sample of requests it scores, and its bound R̄: the region's
// average request size rounded down to the grid, but at least one step
// so degenerate regions (avg below the grid) still search {0, step}.
func (o Optimizer) grid(records []trace.Record, avg float64) (step int64, sample []trace.Record, rBar int64) {
	if len(records) == 0 {
		panic("harl: optimizing a region with no requests")
	}
	if o.Step < 0 {
		panic(fmt.Sprintf("harl: negative step %d", o.Step))
	}
	step = o.step()
	rBar = int64(avg)
	rBar -= rBar % step
	if rBar < step {
		rBar = step
	}
	return step, o.sampleRecords(records), rBar
}

// gridColumn is one shard of the candidate grid: the arithmetic sequence
// of n pairs start, start+delta, ..., scanned in ascending order.
type gridColumn struct {
	start StripePair
	delta StripePair
	n     int64
}

// columns shards Algorithm 2's candidate grid into independently
// scannable slices: one column per h value in the hybrid case (the inner
// s-loop), one column per candidate in the homogeneous single-class
// cases. Dynamic scheduling over columns absorbs their imbalance (the
// h=0 column is the longest).
//
// Scan order is a pruning heuristic, not a correctness concern (ties are
// broken lexicographically, not by arrival): columns go out in ascending
// h, and within a column s descends from R̄ — large-s candidates are
// usually near-optimal for the faster SServers, so a strong bound is
// established early and later candidates abort after a few requests.
func (o Optimizer) columns(rBar, step int64) []gridColumn {
	var cols []gridColumn
	switch {
	case o.Params.N == 0:
		// Homogeneous HServer system: search h alone.
		for h := step; h <= rBar; h += step {
			cols = append(cols, gridColumn{start: StripePair{H: h}, n: 1})
		}
	case o.Params.M == 0:
		// Homogeneous SServer system: search s alone.
		for s := step; s <= rBar; s += step {
			cols = append(cols, gridColumn{start: StripePair{S: s}, n: 1})
		}
	default:
		// Algorithm 2: h from 0 (SServer-only placement) to R̄; s always
		// strictly larger than h, up to R̄ (single-SServer extreme).
		for h := int64(0); h <= rBar; h += step {
			if n := (rBar - h) / step; n > 0 {
				cols = append(cols, gridColumn{
					start: StripePair{H: h, S: rBar},
					delta: StripePair{S: -step},
					n:     n,
				})
			}
		}
	}
	return cols
}

// regionCost sums the per-request model cost (Eq. 7 for reads, Eq. 8 for
// writes) under the candidate pair, through the uncached path; it is the
// reference the cached search is verified against.
func (o Optimizer) regionCost(records []trace.Record, base int64, p StripePair) float64 {
	var total float64
	for _, r := range records {
		local := r.Offset - base
		if local < 0 {
			local = 0
		}
		total += o.Params.RequestCost(r.Op, local, r.Size, p.H, p.S)
	}
	return total
}

// sampleRecords returns an even-stride sample of at most MaxRequests
// records (all of them when the cap is negative or the region is small).
func (o Optimizer) sampleRecords(records []trace.Record) []trace.Record {
	maxReq := o.MaxRequests
	if maxReq == 0 {
		maxReq = DefaultMaxRequests
	}
	if maxReq < 0 || len(records) <= maxReq {
		return records
	}
	out := make([]trace.Record, 0, maxReq)
	stride := float64(len(records)) / float64(maxReq)
	for i := 0; i < maxReq; i++ {
		idx := int(float64(i) * stride)
		if idx >= len(records) {
			// Float rounding can land exactly on len(records) when
			// (maxReq-1)*stride rounds up; clamp to the last record.
			idx = len(records) - 1
		}
		out = append(out, records[idx])
	}
	return out
}

// ReadWriteMix reports the fraction of a region's bytes moved by writes;
// diagnostic output for the analysis reports.
func ReadWriteMix(records []trace.Record) float64 {
	var total, written int64
	for _, r := range records {
		total += r.Size
		if r.Op == device.Write {
			written += r.Size
		}
	}
	if total == 0 {
		return 0
	}
	return float64(written) / float64(total)
}
