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
// This package owns phase 2 and the two tables. The RST's replication
// column is not planned: Analyze leaves every entry's R at 0
// (unreplicated), and a caller that wants replicated regions stamps
// RSTEntry.R on the table itself.
//
// # More than two server profiles
//
// The paper's first future-work item, a cost model for more than two
// server performance profiles, is the same pipeline with k tiers: one
// cost.Params, one Optimizer and one search worker serve every tier
// count. Algorithm 2's exhaustive grid is exponential in k, so beyond
// two tiers the Optimizer runs cyclic coordinate descent on the same
// 4 KB grid instead: it re-optimizes one tier's stripe at a time, with
// the others held at the incumbent, until a full sweep improves nothing.
// Each of those line searches is one grid column scanned by the same
// worker, so the descent shares the evaluator, the memo and both
// pruning exits below. It inherits coordinate descent's local-optimum
// caveat, so it starts from several deterministic points and keeps the
// best fixpoint. Planner.AnalyzeTiered writes the k-tier plan as a
// TieredRST.
//
// # Parallel search architecture
//
// The paper accepts Algorithm 2's exhaustive O((R̄/step)²) grid walk as
// an off-line cost (Section III-E); this implementation makes that cost
// scale with the hardware while provably returning the same plan:
//
//   - Region level: regions share nothing — each owns its request group —
//     so the Planner optimizes them concurrently on a worker pool
//     bounded by the Parallelism option (0 means GOMAXPROCS).
//   - Grid level: within a two-tier region, Optimizer.OptimizeRegion
//     shards the (h, s) candidate grid into columns (one h value each)
//     that workers claim dynamically, each keeping a private running
//     best; a final reduce merges the per-worker bests. Single-huge-region
//     traces (IOR uniform) therefore scale too.
//   - Cost evaluation: each worker scores candidates through a
//     cost.Evaluator, which validates the striping geometry and
//     tabulates the startup terms once per candidate, and memoizes each
//     distinct sampled request's cost per candidate by sample index.
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
// path, two-tier ties are broken toward the lexicographically smallest
// (h, s) rather than arrival order (the serial descent keeps the
// incumbent on a tie), and pruning only discards candidates whose
// computed total provably exceeds the running best.
package harl

import (
	"fmt"
	"math"
	"strings"

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
func (sp StripePair) String() string { return stripesString([]int64{sp.H, sp.S}) }

// pairOf views a two-tier stripe vector as a pair.
func pairOf(stripes []int64) StripePair { return StripePair{H: stripes[0], S: stripes[1]} }

// stripesString renders per-tier stripes like a pair, e.g. "16K-36K-40K".
func stripesString(stripes []int64) string {
	parts := make([]string, len(stripes))
	for i, x := range stripes {
		parts[i] = kb(x)
	}
	return strings.Join(parts, "-")
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

// Optimizer finds a region's per-tier stripe sizes under the cost
// model. On two tiers it runs Algorithm 2: exhaustive (h, s) grid search
// sharded across workers with memoized cost evaluations and lower-bound
// pruning; on any other tier count, coordinate descent over the same
// grid (see the package doc).
type Optimizer struct {
	Params cost.Params
	// Step is the grid granularity; 0 means DefaultStep.
	Step int64
	// MaxRequests caps the scored requests per region; 0 means
	// DefaultMaxRequests, negative means no cap.
	MaxRequests int
	// Parallelism bounds the goroutines sharding the two-tier candidate
	// grid; 0 means GOMAXPROCS, 1 forces the serial search. The result
	// is bit-identical at every setting. Coordinate descent is serial.
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
// the region's requests on a two-tier system (offsets are file-absolute;
// base is the region's start offset, subtracted to get region-local
// offsets, since each region becomes its own physical file). avg is the
// region's average request size, the R̄ bound of Algorithm 2's loops. It
// returns the best pair and its total model cost.
func (o Optimizer) OptimizeRegion(records []trace.Record, base int64, avg float64) (StripePair, float64) {
	if k := len(o.Params.Tiers); k != 2 {
		panic(fmt.Sprintf("harl: OptimizeRegion needs two tiers, got %d (use OptimizeStripes)", k))
	}
	rs := o.optimize(records, base, avg)
	return pairOf(rs.Best), rs.Cost
}

// OptimizeStripes is OptimizeRegion for any tier count: it returns the
// per-tier stripe sizes minimizing the region's summed model cost, and
// that cost.
func (o Optimizer) OptimizeStripes(records []trace.Record, base int64, avg float64) ([]int64, float64) {
	rs := o.optimize(records, base, avg)
	return rs.Best, rs.Cost
}

// optimize is the search itself. It returns the search's profile, whose
// Best and Cost are the result; the counters are reproducible only at
// Parallelism 1 (see profile.go).
func (o Optimizer) optimize(records []trace.Record, base int64, avg float64) RegionSearch {
	step, sample, rBar := o.grid(records, avg)
	var rs RegionSearch
	if len(o.Params.Tiers) == 2 {
		rs = o.exhaustive(sample, base, step, rBar)
	} else {
		rs = o.descend(sample, base, step, rBar)
	}
	rs.Requests, rs.Sampled = len(records), len(sample)
	return rs
}

// exhaustive is Algorithm 2: every candidate of the two-tier grid,
// sharded by column across workers.
func (o Optimizer) exhaustive(sample []trace.Record, base, step, rBar int64) RegionSearch {
	cols := o.columns(rBar, step)
	ws := make([]*searchWorker, min(workers(o.Parallelism), max(len(cols), 1)))
	for i := range ws {
		ws[i] = o.newSearchWorker(sample, base)
	}
	scatter(len(ws), len(cols), func(w, i int) { ws[w].scan(cols[i]) })

	best := ws[0]
	for _, w := range ws[1:] {
		if better(w.bestCost, w.best, best.bestCost, best.best) {
			best = w
		}
	}
	rs := RegionSearch{Best: best.best, Cost: best.bestCost}
	for _, w := range ws {
		rs.addWork(w.work)
	}
	return rs
}

// maxSweeps bounds coordinate descent's sweeps over the tiers.
const maxSweeps = 8

// descend is cyclic coordinate descent: from each starting point, sweep
// the populated tiers, line-searching one tier's stripe over the grid
// with the others held at the incumbent, until a sweep improves nothing.
// A line search is one grid column seeded with the incumbent; a
// candidate must strictly beat the incumbent to replace it. The first of
// the best fixpoints wins.
//
// Coordinate descent can stall on joint moves (raising one tier's share
// alone inflates the network term before the transfer term rebalances),
// which is why it runs from several starting points.
func (o Optimizer) descend(sample []trace.Record, base, step, rBar int64) RegionSearch {
	w := o.newSearchWorker(sample, base)
	w.keepTies = true
	rs := RegionSearch{Best: make([]int64, len(w.best)), Cost: math.Inf(1)}
	for _, start := range o.startingPoints(step, rBar) {
		w.bestCost, w.limit = math.Inf(1), math.Inf(1)
		copy(w.point, start)
		w.consider()
		for sweep := 0; sweep < maxSweeps; sweep++ {
			cur := w.bestCost
			for ti, tier := range o.Params.Tiers {
				if tier.Count > 0 {
					w.scan(gridColumn{seed: w.best, axis: ti, delta: step, n: rBar/step + 1})
				}
			}
			if !(w.bestCost < cur) {
				break
			}
		}
		if w.bestCost < rs.Cost {
			copy(rs.Best, w.best)
			rs.Cost = w.bestCost
		}
	}
	rs.addWork(w.work)
	return rs
}

// startingPoints yields the descent's initial configurations: the
// minimal all-one-step spread, and speed-proportional splits (stripe
// share inversely proportional to the tier's read β) at two scales.
func (o Optimizer) startingPoints(step, rBar int64) [][]int64 {
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
		if t.Count > 0 && t.Read.Beta > 0 {
			weights[i] = 1 / t.Read.Beta
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
			prop[i] = min(max(s, step), rBar)
		}
		if storesData(tiers, prop) {
			points = append(points, prop)
		}
	}
	return points
}

// storesData reports whether a candidate stores data somewhere: some
// populated tier has a nonzero stripe.
func storesData(tiers []cost.TierParams, stripes []int64) bool {
	for i, t := range tiers {
		if t.Count > 0 && stripes[i] > 0 {
			return true
		}
	}
	return false
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
	if err := o.Params.Validate(); err != nil {
		panic(err)
	}
	step = o.step()
	rBar = int64(avg)
	rBar -= rBar % step
	if rBar < step {
		rBar = step
	}
	return step, o.sampleRecords(records), rBar
}

// gridColumn is one shard of the candidate grid: the n candidates that
// equal seed except on tier axis, whose stripe runs start, start+delta,
// ..., scanned in that order.
type gridColumn struct {
	seed            []int64
	axis            int
	start, delta, n int64
}

// columns shards Algorithm 2's two-tier candidate grid into
// independently scannable slices: one column per h value in the hybrid
// case (the inner s-loop), one column per candidate in the homogeneous
// single-class cases. Dynamic scheduling over columns absorbs their
// imbalance (the h=0 column is the longest).
//
// Scan order is a pruning heuristic, not a correctness concern (ties are
// broken lexicographically, not by arrival): columns go out in ascending
// h, and within a column s descends from R̄ — large-s candidates are
// usually near-optimal for the faster SServers, so a strong bound is
// established early and later candidates abort after a few requests.
func (o Optimizer) columns(rBar, step int64) []gridColumn {
	var cols []gridColumn
	n := rBar / step
	switch zero := make([]int64, 2); {
	case o.Params.Tiers[1].Count == 0:
		// Homogeneous HServer system: search h alone.
		for h := step; h <= rBar; h += step {
			cols = append(cols, gridColumn{seed: zero, axis: 0, start: h, n: 1})
		}
	case o.Params.Tiers[0].Count == 0:
		// Homogeneous SServer system: search s alone.
		for s := step; s <= rBar; s += step {
			cols = append(cols, gridColumn{seed: zero, axis: 1, start: s, n: 1})
		}
	default:
		// Algorithm 2: h from 0 (SServer-only placement) to R̄; s always
		// strictly larger than h, up to R̄ (single-SServer extreme).
		seeds := make([]int64, 2*n)
		for i := range n {
			seed := seeds[2*i : 2*i+2]
			seed[0] = i * step
			cols = append(cols, gridColumn{seed: seed, axis: 1, start: rBar, delta: -step, n: n - i})
		}
	}
	return cols
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
