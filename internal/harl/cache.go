package harl

import (
	"math"
	"slices"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/trace"
)

// searchWorker is one search worker's private state, for any tier count:
// the region's sampled requests with their evaluation-cache indexing
// precomputed, a reusable cost.Evaluator (striping validated and round
// geometry derived once per candidate instead of once per request), the
// candidate under consideration, and the running best candidate, against
// which the lower-bound early exits prune.
//
// The cost-evaluation cache is index-based rather than hash-based: two
// sampled requests with the same (op, region-local offset, size) have
// bit-identical model cost under every candidate, so shape[i] points
// each sample at its first identical occurrence and costs[] memoizes one
// evaluation per distinct shape per candidate. The inner loop therefore
// pays no hashing at all; repetitive traces (BTIO's snapshot pattern,
// strided collectives) collapse to their distinct request shapes.
//
// The shape bound works per (op, size) group instead: cost.Evaluator's
// Bound floors every offset of a group at once, so one call per group
// per candidate floors the whole sample, and the least group floor times
// the number of requests still to score floors the rest of a sum.
type searchWorker struct {
	opt      Optimizer
	eval     *cost.Evaluator
	sample   []trace.Record
	local    []int64   // region-local offset per sample
	shape    []int     // first sample index with the same (op, local, size)
	costs    []float64 // per-candidate memo, written at first occurrences
	point    []int64   // the candidate being considered, one stripe per tier
	best     []int64
	bestCost float64
	// keepTies keeps the incumbent on an exact tie (coordinate descent);
	// otherwise the lexicographically smaller candidate wins.
	keepTies bool

	groups   []sampleShape // the sample's distinct (op, size) groups, off zeroed
	counts   []float64     // samples per group
	minFloor float64       // least group floor of the pinned candidate
	slack    float64       // relative slack of the bound exits (see consider)
	limit    float64       // bestCost·(1+slack)

	// work holds the search profile counters (profile.go); maintaining
	// them costs a few integer increments per candidate, negligible next
	// to the model math.
	work RegionSearch
}

// sampleShape is the dedup key: requests matching in all three fields
// cost the same under any (h, s). With off zeroed it is the key of the
// bound's (op, size) groups.
type sampleShape struct {
	op        device.Op
	off, size int64
}

func (o Optimizer) newSearchWorker(sample []trace.Record, base int64) *searchWorker {
	n, k := len(sample), len(o.Params.Tiers)
	w := &searchWorker{
		opt:      o,
		sample:   sample,
		local:    make([]int64, n),
		shape:    make([]int, n),
		costs:    make([]float64, n),
		point:    make([]int64, k),
		best:     make([]int64, k),
		bestCost: math.Inf(1),
		limit:    math.Inf(1),
		slack:    float64(4*(n+1)) * 0x1p-53,
	}
	seen := make(map[sampleShape]int, n)
	groups := make(map[sampleShape]int)
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
		key.off = 0
		if g, ok := groups[key]; ok {
			w.counts[g]++
		} else {
			groups[key] = len(w.groups)
			w.groups = append(w.groups, key)
			w.counts = append(w.counts, 1)
		}
	}
	return w
}

// scan considers every candidate of one grid column in order, skipping
// any that stores no data.
func (w *searchWorker) scan(col gridColumn) {
	copy(w.point, col.seed)
	x := col.start
	for i := int64(0); i < col.n; i++ {
		w.point[col.axis] = x
		if x != 0 || storesData(w.opt.Params.Tiers, w.point) {
			w.consider()
		}
		x += col.delta
	}
}

// consider scores the candidate w.point against the worker's running
// best.
//
// Two lower bounds prune it. Per-request costs are non-negative, so the
// partial sum is a lower bound on the candidate's total: once it
// strictly exceeds the running best the candidate cannot win under any
// tie-break and the rest of the sum is skipped. The shape bound (floor)
// is sharper: before any request is scored, the floors of the sample's
// (op, size) groups add up to a lower bound on the whole sum, and while
// scoring, so does the partial sum plus the least group floor for each
// request still to come. Exact ties complete their sum and lose or win by
// the tie rule, so in the two-tier grid, whose rule is lexicographic,
// the search result is independent of the order candidates are visited
// in — which lets scan order be chosen purely for pruning power. Pruning
// never changes the search result, only its cost.
//
// The floors are summed in a different order from the costs, so the
// shape-bound exits compare against limit = bestCost·(1+slack) rather
// than bestCost. With u = 2⁻⁵³ and n samples, each floor sum (the group
// sum, or minFloor times the requests still to score) is at most (1+u)ⁿ
// times an exact sum of floors, which is at most the exact sum of the
// costs it stands for. The sample-order cost sum is at least (1−u)ⁿ
// times its exact value from any partial sum on. slack = 4(n+1)·u
// covers both factors plus the rounding of the exit's own addition and
// of limit, so a floor sum above limit proves the candidate's computed
// total strictly above bestCost: the shape bound never prunes an exact
// or near tie.
//
// Aborting mid-sum leaves costs[] entries beyond the abort point stale,
// which is safe: a later index only ever reads costs[shape[i]] with
// shape[i] <= i, and every first occurrence re-writes its entry before
// any duplicate reads it within the same candidate.
func (w *searchWorker) consider() {
	p := w.point
	w.work.Candidates++
	// Pruning needs a finite best to beat.
	prune := !w.opt.noPrune && !math.IsInf(w.bestCost, 1)
	if !w.opt.noCache || prune {
		if w.eval == nil {
			e, err := w.opt.Params.NewEvaluator(p...)
			if err != nil {
				panic(err)
			}
			w.eval = e
		} else if err := w.eval.Reset(p...); err != nil {
			panic(err)
		}
	}
	if prune && w.floor() > w.limit {
		w.work.Bounded++
		w.work.Pruned++
		return
	}
	var total float64
	for i, r := range w.sample {
		var c float64
		switch {
		case w.opt.noCache:
			w.work.Evals++
			c = w.opt.Params.RequestCost(r.Op, w.local[i], r.Size, p...)
		case w.shape[i] < i:
			w.work.CacheHits++
			c = w.costs[w.shape[i]]
		default:
			w.work.Evals++
			c = w.eval.RequestCost(r.Op, w.local[i], r.Size)
			w.costs[i] = c
		}
		total += c
		if prune && (total > w.bestCost || total+float64(len(w.sample)-i-1)*w.minFloor > w.limit) {
			w.work.Pruned++
			return
		}
	}
	w.work.Scored++
	if total < w.bestCost || !w.keepTies && better(total, p, w.bestCost, w.best) {
		copy(w.best, p)
		w.bestCost = total
		w.limit = total * (1 + w.slack)
	}
}

// floor returns the pinned candidate's shape bound on the whole sample,
// the summed floors of its (op, size) groups, and records the least
// group floor for the scoring loop. It stops early, returning a partial
// sum, once the sum passes limit: the candidate is rejected either way.
func (w *searchWorker) floor() float64 {
	var sum float64
	w.minFloor = math.Inf(1)
	for g, k := range w.groups {
		f := w.eval.Bound(k.op, k.size)
		if sum += w.counts[g] * f; sum > w.limit {
			break
		}
		w.minFloor = min(w.minFloor, f)
	}
	return sum
}

// better reports whether candidate (c, p) beats (bestC, best): strictly
// lower cost, or equal cost with the lexicographically smaller stripes —
// the tie-break that makes the grid search's result independent of
// evaluation order. It matches the serial seed search, which scanned
// ascending (h, s) and kept the first strict improvement.
func better(c float64, p []int64, bestC float64, best []int64) bool {
	if c != bestC {
		return c < bestC
	}
	return slices.Compare(p, best) < 0
}
