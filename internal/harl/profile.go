package harl

import (
	"fmt"
	"io"
	"time"
)

// Planner profiling: where does the Analysis Phase spend its search
// budget? The profile counts grid candidates considered, scored to
// completion, pruned by the lower bound, and served from the shape cache,
// per region and per pool worker, plus wall-clock time.
//
// Unlike the simulator's obs instrumentation, the profile reads the real
// clock — the planner is an offline tool that never runs inside the
// discrete-event simulation, so wall time is the honest metric and
// determinism of simulated results is unaffected. The produced plan is
// bit-identical with and without profiling at every Parallelism setting;
// the candidate/prune/cache counts themselves are only reproducible at
// Parallelism 1, because dynamic column scheduling changes which worker
// holds which running best.

// RegionSearch profiles one region's grid search.
type RegionSearch struct {
	Region   int // index in the plan's region list
	Requests int // requests assigned to the region
	Sampled  int // requests actually scored per candidate

	Candidates int64 // grid candidates considered
	Scored     int64 // candidates whose cost sum ran to completion
	Pruned     int64 // candidates abandoned by a lower-bound early exit
	Bounded    int64 // of Pruned, those rejected by the shape bound before any evaluation
	CacheHits  int64 // per-request costs served from the shape cache
	Evals      int64 // per-request costs computed by the model

	WallNS int64   // wall-clock nanoseconds spent in the search
	Best   []int64 // the best candidate's stripe per tier
	Cost   float64
}

// WorkerLoad profiles one Analysis Phase pool worker.
type WorkerLoad struct {
	Worker  int
	Regions int   // regions this worker optimized
	WallNS  int64 // wall-clock nanoseconds across them
}

// SearchProfile aggregates an Analyze call's search profile. Attach an
// empty one to Planner.Profile before calling Analyze.
type SearchProfile struct {
	Regions []RegionSearch
	Workers []WorkerLoad
	WallNS  int64 // wall-clock nanoseconds for the whole Analyze call
}

// Totals sums the per-region counters.
func (p *SearchProfile) Totals() RegionSearch {
	var t RegionSearch
	for _, r := range p.Regions {
		t.Requests += r.Requests
		t.Sampled += r.Sampled
		t.addWork(r)
	}
	return t
}

// addWork adds o's search-work counters to rs.
func (rs *RegionSearch) addWork(o RegionSearch) {
	rs.Candidates += o.Candidates
	rs.Scored += o.Scored
	rs.Pruned += o.Pruned
	rs.Bounded += o.Bounded
	rs.CacheHits += o.CacheHits
	rs.Evals += o.Evals
}

// ShardBalance reports the worker-load imbalance as max/mean wall time
// over the pool (1 is perfect balance; 0 when nothing ran).
func (p *SearchProfile) ShardBalance() float64 {
	var total, maxNS int64
	for _, w := range p.Workers {
		total += w.WallNS
		if w.WallNS > maxNS {
			maxNS = w.WallNS
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(p.Workers))
	return float64(maxNS) / mean
}

// WriteTo renders the profile as a human-readable report.
func (p *SearchProfile) WriteTo(w io.Writer) (int64, error) {
	var n int64
	printf := func(format string, args ...any) error {
		c, err := fmt.Fprintf(w, format, args...)
		n += int64(c)
		return err
	}
	t := p.Totals()
	if err := printf("analysis: %d regions in %v (shard balance %.2f)\n",
		len(p.Regions), time.Duration(p.WallNS), p.ShardBalance()); err != nil {
		return n, err
	}
	if err := printf("search: %d candidates (%d scored, %d pruned, %d of them unscored), %d evals, %d cache hits\n",
		t.Candidates, t.Scored, t.Pruned, t.Bounded, t.Evals, t.CacheHits); err != nil {
		return n, err
	}
	for _, r := range p.Regions {
		if err := printf("  region %2d: %5d reqs (%3d sampled)  %6d cand  %5.1f%% pruned  best %v  %v\n",
			r.Region, r.Requests, r.Sampled, r.Candidates,
			percent(r.Pruned, r.Candidates), stripesString(r.Best), time.Duration(r.WallNS)); err != nil {
			return n, err
		}
	}
	for _, wl := range p.Workers {
		if err := printf("  worker %2d: %3d regions  %v\n",
			wl.Worker, wl.Regions, time.Duration(wl.WallNS)); err != nil {
			return n, err
		}
	}
	return n, nil
}

func percent(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
