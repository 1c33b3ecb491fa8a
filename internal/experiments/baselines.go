package experiments

import (
	"fmt"

	"harl/internal/baselines"
	"harl/internal/harl"
)

// BaselineComparison positions HARL against its closest relative from the
// related work (Section II): a CARL-style region placement that puts each
// region wholly on one server class. The workload is the non-uniform
// four-region file of Fig. 11; CARL runs at two SSD budgets, and HARL's
// mixed-class striping should beat or match the best of them.
func BaselineComparison(o Options) (*Table, error) {
	t := &Table{
		Title:   "Baseline: HARL vs CARL-style region placement (non-uniform workload)",
		Columns: []string{"read MB/s", "write MB/s", "SSD bytes %"},
	}
	clusterCfg := o.clusterDefault()
	mcfg := o.multiConfig()
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return nil, err
	}
	tr := mcfg.Trace()
	total := mcfg.FileSize()

	run := func(label string, rst harl.RST) error {
		res, err := runOn(o, scenario{cluster: clusterCfg, rst: &rst}, multiWorkload(mcfg))
		if err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		share := float64(baselines.SSDBytes(&rst, clusterCfg.HServers, clusterCfg.SServers)) / float64(total) * 100
		t.Add(label, res.ReadMBs(), res.WriteMBs(), share)
		return nil
	}

	for _, budgetFrac := range []float64{0.25, 0.5} {
		carl, err := baselines.CARLPlanner{
			Params:      pl.Params,
			ChunkSize:   o.ChunkSize,
			MaxRequests: 64,
			Parallelism: o.Parallelism,
			SSDBudget:   int64(float64(total) * budgetFrac),
		}.Analyze(tr)
		if err != nil {
			return nil, err
		}
		if err := run(fmt.Sprintf("CARL (%.0f%% SSD budget)", budgetFrac*100), carl.RST); err != nil {
			return nil, err
		}
	}

	pl.MaxRequests = 64
	harlPlan, err := pl.Analyze(tr)
	if err != nil {
		return nil, err
	}
	if err := run("HARL", harlPlan.RST); err != nil {
		return nil, err
	}
	return t, nil
}
