package experiments

import (
	"fmt"

	"harl/internal/cost"
	"harl/internal/harl"
	"harl/internal/region"
)

// Ablation experiments isolate HARL's design choices (DESIGN.md §5).
// They are not figures from the paper; they answer "which part of the
// mechanism buys what".

// AblationRegionDivision compares the region-division strategies on the
// non-uniform four-region workload: whole-file (one region, stripe pair
// optimized globally), fixed 64 MB-style chunks (the segment-level
// baseline [10]), and HARL's CV-based adaptive division.
func AblationRegionDivision(o Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: region division strategy (non-uniform workload)",
		Columns: []string{"read MB/s", "write MB/s", "regions"},
	}
	clusterCfg := o.clusterDefault()
	mcfg := o.multiConfig()
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return nil, err
	}
	tr := mcfg.Trace()

	run := func(label string, rst harl.RST) error {
		res, err := runOn(o, scenario{cluster: clusterCfg, rst: &rst}, multiWorkload(mcfg))
		if err != nil {
			return err
		}
		t.Add(label, res.ReadMBs(), res.WriteMBs(), float64(len(rst.Entries)))
		return nil
	}

	// Whole-file: a single region covering the trace, optimized once.
	sorted := sortedCopy(tr)
	sum := sorted.Summarize()
	opt := harl.Optimizer{Params: pl.Params}
	pair, _ := opt.OptimizeRegion(sorted.Records, 0, sum.AvgSize)
	whole := harl.RST{Entries: []harl.RSTEntry{{Offset: 0, End: sum.MaxOffset, H: pair.H, S: pair.S}}}
	if err := run(fmt.Sprintf("whole-file %v", pair), whole); err != nil {
		return nil, err
	}

	// Fixed chunks (segment-level scheme): divide by chunk size, then
	// optimize each chunk with the same Algorithm 2.
	chunks := region.FixedDivide(sorted.Records, o.ChunkSize, 0)
	groups := region.AssignRequests(chunks, sorted.Records)
	var fixedRST harl.RST
	for i, reg := range chunks {
		p := pair // chunks with no requests inherit the global optimum
		if len(groups[i]) > 0 {
			p, _ = opt.OptimizeRegion(groups[i], reg.Offset, reg.AvgSize)
		}
		fixedRST.Entries = append(fixedRST.Entries, harl.RSTEntry{
			Offset: reg.Offset, End: reg.End, H: p.H, S: p.S,
		})
	}
	fixedRST.Merge()
	if err := run("fixed chunks", fixedRST); err != nil {
		return nil, err
	}

	// HARL's CV-based adaptive division.
	plan, err := pl.Analyze(tr)
	if err != nil {
		return nil, err
	}
	if err := run("CV adaptive (HARL)", plan.RST); err != nil {
		return nil, err
	}
	return t, nil
}

// AblationCostModel compares stripe optimizers driven by the full cost
// model against a transfer-only model (startup and network terms zeroed)
// — showing why the order-statistics startup term matters for small
// requests.
func AblationCostModel(o Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: cost model terms (16 procs, 128KB requests)",
		Columns: []string{"read MB/s", "write MB/s"},
	}
	clusterCfg := o.clusterDefault()
	cfg := o.iorConfig(o.Ranks, 128<<10)
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return nil, err
	}

	for _, variant := range []struct {
		label  string
		mutate func(cost.Params) cost.Params
	}{
		{"full model (HARL)", func(p cost.Params) cost.Params { return p }},
		{"no startup term", func(p cost.Params) cost.Params {
			p.AlphaHMin, p.AlphaHMax = 0, 0
			p.AlphaSRMin, p.AlphaSRMax = 0, 0
			p.AlphaSWMin, p.AlphaSWMax = 0, 0
			return p
		}},
		{"no network term", func(p cost.Params) cost.Params {
			p.NetUnit = 0
			return p
		}},
	} {
		v := pl
		v.Params = variant.mutate(pl.Params)
		plan, err := v.Analyze(cfg.Trace())
		if err != nil {
			return nil, err
		}
		res, err := runOn(o, scenario{cluster: clusterCfg, rst: &plan.RST}, iorWorkload(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%s %v", variant.label, planPair(plan)), res.ReadMBs(), res.WriteMBs())
	}
	return t, nil
}

// AblationThreshold sweeps Algorithm 1's CV threshold on the non-uniform
// workload, reporting region counts and the resulting throughput — the
// metadata-overhead / adaptivity trade-off of Section III-C.
func AblationThreshold(o Options) (*Table, error) {
	t := &Table{
		Title:   "Ablation: CV threshold vs region count (non-uniform workload)",
		Columns: []string{"regions", "read MB/s", "write MB/s"},
	}
	clusterCfg := o.clusterDefault()
	mcfg := o.multiConfig()
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return nil, err
	}
	tr := mcfg.Trace()
	for _, threshold := range []float64{25, 100, 400, 1600, 1e9} {
		v := pl
		v.Threshold = threshold
		plan, err := v.Analyze(tr)
		if err != nil {
			return nil, err
		}
		res, err := runOn(o, scenario{cluster: clusterCfg, rst: &plan.RST}, multiWorkload(mcfg))
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("threshold %.0f%%", threshold)
		if threshold >= 1e9 {
			label = "threshold inf (one region)"
		}
		t.Add(label, float64(len(plan.RST.Entries)), res.ReadMBs(), res.WriteMBs())
	}
	return t, nil
}
