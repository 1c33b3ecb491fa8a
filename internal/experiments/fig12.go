package experiments

import (
	"fmt"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/trace"
)

// Fig12 reproduces "I/O throughputs of BTIO benchmark with different
// layouts": BTIO (the paper runs class A, full subtype — collective I/O)
// with 4, 16 and 64 processes, comparing fixed-size stripes against HARL.
// The column is the aggregate (write+read) throughput the paper plots.
func Fig12(o Options) (*Table, error) {
	t := &Table{Title: "Fig 12: BTIO aggregate throughput", Columns: []string{"MB/s"}}
	clusterCfg := o.clusterDefault()

	for _, procs := range []int{4, 16, 64} {
		cfg := o.BTIOClass(procs)
		cfg.RanksPerNode = o.ranksPerNode(procs)
		for _, stripe := range o.BTIOStripes {
			res, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: stripe, S: stripe}), btioWorkload(cfg))
			if err != nil {
				return nil, fmt.Errorf("fig12 %dp fixed %d: %w", procs, stripe, err)
			}
			t.Add(fmt.Sprintf("%dp %dK", procs, stripe>>10), res.AggregateMBs())
		}
		res, plan, err := runBTIOHARL(o, clusterCfg, cfg)
		if err != nil {
			return nil, fmt.Errorf("fig12 %dp harl: %w", procs, err)
		}
		t.Add(fmt.Sprintf("%dp HARL (%d regions)", procs, len(plan.RST.Entries)), res.AggregateMBs())
	}
	return t, nil
}

// runBTIOHARL executes the full pipeline for BTIO: a traced first run on
// the default layout collects the post-aggregation request stream, the
// planner analyzes it, and a fresh testbed measures the optimized layout.
func runBTIOHARL(o Options, clusterCfg cluster.Config, cfg btio.Config) (btio.Result, *harl.Plan, error) {
	// Tracing phase: instrument a run on the default 64 KB layout.
	s := fixed(clusterCfg, harl.StripePair{H: 64 << 10, S: 64 << 10})
	s.name, s.ranks = "btio", cfg.Ranks
	rg, err := o.build(s)
	if err != nil {
		return btio.Result{}, nil, err
	}
	collector := trace.NewCollector()
	traceCfg := cfg
	traceCfg.Verify = false
	if _, err := btio.Run(rg.w, rg.w.Trace(rg.f, collector), traceCfg); err != nil {
		return btio.Result{}, nil, err
	}

	// Analysis phase, then the placing phase and the measured run.
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return btio.Result{}, nil, err
	}
	plan, err := pl.Analyze(collector.Trace())
	if err != nil {
		return btio.Result{}, nil, err
	}
	res, err := runOn(o, scenario{cluster: clusterCfg, rst: &plan.RST}, btioWorkload(cfg))
	return res, plan, err
}
