package harl

import (
	"math"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/trace"
)

// searchWorker is one grid-search worker's private state: the region's
// sampled requests with their evaluation-cache indexing precomputed, a
// reusable cost.Evaluator (striping validated and round geometry derived
// once per candidate instead of once per request), and the running best
// candidate, against which the lower-bound early exit prunes.
//
// The cost-evaluation cache is index-based rather than hash-based: two
// sampled requests with the same (op, region-local offset, size) have
// bit-identical model cost under every candidate, so shape[i] points
// each sample at its first identical occurrence and costs[] memoizes one
// evaluation per distinct shape per candidate. The inner loop therefore
// pays no hashing at all; repetitive traces (BTIO's snapshot pattern,
// strided collectives) collapse to their distinct request shapes.
type searchWorker struct {
	opt      Optimizer
	eval     *cost.Evaluator
	sample   []trace.Record
	local    []int64   // region-local offset per sample
	shape    []int     // first sample index with the same (op, local, size)
	costs    []float64 // per-candidate memo, written at first occurrences
	best     StripePair
	bestCost float64

	// work holds the search profile counters (profile.go); maintaining
	// them costs a few integer increments per candidate, negligible next
	// to the model math.
	work RegionSearch
}

// sampleShape is the dedup key: requests matching in all three fields
// cost the same under any (h, s).
type sampleShape struct {
	op        device.Op
	off, size int64
}

func (o Optimizer) newSearchWorker(sample []trace.Record, base int64) *searchWorker {
	w := &searchWorker{
		opt:      o,
		sample:   sample,
		local:    make([]int64, len(sample)),
		shape:    make([]int, len(sample)),
		costs:    make([]float64, len(sample)),
		best:     StripePair{H: 0, S: o.step()},
		bestCost: math.Inf(1),
	}
	seen := make(map[sampleShape]int, len(sample))
	for i, r := range sample {
		local := r.Offset - base
		if local < 0 {
			local = 0
		}
		w.local[i] = local
		key := sampleShape{op: r.Op, off: local, size: r.Size}
		if j, ok := seen[key]; ok {
			w.shape[i] = j
		} else {
			seen[key] = i
			w.shape[i] = i
		}
	}
	return w
}

// scan evaluates every candidate of one grid column in ascending order.
func (w *searchWorker) scan(col gridColumn) {
	p := col.start
	for i := int64(0); i < col.n; i++ {
		w.consider(p)
		p.H += col.delta.H
		p.S += col.delta.S
	}
}

// consider scores candidate p against the worker's running best.
//
// Per-request costs are non-negative, so the partial sum is an admissible
// lower bound on the candidate's total cost: once it strictly exceeds the
// running best the candidate cannot win under any tie-break and the rest
// of the sum is skipped. Exact ties complete their sum and lose or win by
// the lexicographic (h, s) tie-break, so the search result is independent
// of the order candidates are visited in — which lets scan order be
// chosen purely for pruning power. Pruning never changes the search
// result, only its cost.
//
// Aborting mid-sum leaves costs[] entries beyond the abort point stale,
// which is safe: a later index only ever reads costs[shape[i]] with
// shape[i] <= i, and every first occurrence re-writes its entry before
// any duplicate reads it within the same candidate.
func (w *searchWorker) consider(p StripePair) {
	w.work.Candidates++
	if !w.opt.noCache {
		if w.eval == nil {
			e, err := w.opt.Params.NewEvaluator(p.H, p.S)
			if err != nil {
				panic(err)
			}
			w.eval = e
		} else if err := w.eval.Reset(p.H, p.S); err != nil {
			panic(err)
		}
	}
	bound := w.bestCost
	if w.opt.noPrune {
		bound = math.Inf(1)
	}
	var total float64
	for i, r := range w.sample {
		var c float64
		switch {
		case w.opt.noCache:
			w.work.Evals++
			c = w.opt.Params.RequestCost(r.Op, w.local[i], r.Size, p.H, p.S)
		case w.shape[i] < i:
			w.work.CacheHits++
			c = w.costs[w.shape[i]]
		default:
			w.work.Evals++
			c = w.eval.RequestCostDirect(r.Op, w.local[i], r.Size)
			w.costs[i] = c
		}
		total += c
		if total > bound {
			w.work.Pruned++
			return
		}
	}
	w.work.Scored++
	if better(total, p, w.bestCost, w.best) {
		w.best, w.bestCost = p, total
	}
}

// pairLess orders candidates lexicographically by (H, S) — the tie-break
// that makes the search result independent of evaluation order.
func pairLess(a, b StripePair) bool {
	if a.H != b.H {
		return a.H < b.H
	}
	return a.S < b.S
}

// better reports whether candidate (c, p) beats (bestC, best): strictly
// lower cost, or equal cost with the lexicographically smaller pair.
// This matches the serial seed search, which scanned ascending (h, s)
// and kept the first strict improvement.
func better(c float64, p StripePair, bestC float64, best StripePair) bool {
	if c != bestC {
		return c < bestC
	}
	return pairLess(p, best)
}
