package experiments

import (
	"fmt"

	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/ior"
)

// harlIOR runs the full HARL pipeline for an IOR workload and measures
// it: trace (the deterministic request plan stands in for the traced
// first execution — it is exactly the request stream the run replays),
// calibrate, analyze (Algorithms 1+2), place (per-region files), run.
//
// onlyOp optionally restricts the analyzed trace to one operation,
// mirroring the paper's Fig. 7, where the read test is optimized from the
// read trace ({32K,160K}) and the write test from the write trace
// ({36K,148K}). Pass opAny to optimize both phases jointly.
func harlIOR(o Options, clusterCfg cluster.Config, cfg ior.Config, onlyOp int) (ior.Result, *harl.Plan, error) {
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return ior.Result{}, nil, err
	}
	tr := cfg.Trace()
	if onlyOp == opRead {
		tr = tr.Reads()
	} else if onlyOp == opWrite {
		tr = tr.Writes()
	}
	plan, err := pl.Analyze(tr)
	if err != nil {
		return ior.Result{}, nil, err
	}
	res, err := runOn(o, scenario{cluster: clusterCfg, rst: &plan.RST}, iorWorkload(cfg))
	return res, plan, err
}

// Operation filters for harlIOR.
const (
	opAny = iota
	opRead
	opWrite
)

// Fig7 reproduces "Throughputs of IOR with different layouts": 16
// processes, 512 KB requests, fixed-size stripes vs randomly-chosen
// stripes vs HARL; columns are read and write MB/s. The HARL row is
// optimized per operation, as in the paper.
func Fig7(o Options) (*Table, error) {
	t := &Table{Title: "Fig 7: IOR throughput by layout (16 procs, 512KB)", Columns: []string{"read MB/s", "write MB/s"}}
	clusterCfg := o.clusterDefault()
	cfg := o.iorConfig(o.Ranks, 512<<10)

	for _, stripe := range o.FixedStripes {
		res, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: stripe, S: stripe}), iorWorkload(cfg))
		if err != nil {
			return nil, fmt.Errorf("fig7 fixed %d: %w", stripe, err)
		}
		t.Add(fmt.Sprintf("%dK", stripe>>10), res.ReadMBs(), res.WriteMBs())
	}
	for i, pair := range o.randomPairs() {
		res, err := runOn(o, fixed(clusterCfg, pair), iorWorkload(cfg))
		if err != nil {
			return nil, fmt.Errorf("fig7 random %d: %w", i, err)
		}
		t.Add(fmt.Sprintf("rand%d (%v)", i+1, pair), res.ReadMBs(), res.WriteMBs())
	}
	rRes, rPlan, err := harlIOR(o, clusterCfg, cfg, opRead)
	if err != nil {
		return nil, fmt.Errorf("fig7 harl read: %w", err)
	}
	wRes, wPlan, err := harlIOR(o, clusterCfg, cfg, opWrite)
	if err != nil {
		return nil, fmt.Errorf("fig7 harl write: %w", err)
	}
	t.Add(fmt.Sprintf("HARL (r:%v w:%v)", planPair(rPlan), planPair(wPlan)),
		rRes.ReadMBs(), wRes.WriteMBs())
	return t, nil
}

// planPair summarizes a single-region plan's stripe pair for labels.
func planPair(p *harl.Plan) harl.StripePair {
	if len(p.Regions) == 0 {
		return harl.StripePair{}
	}
	return p.Regions[0].Stripes
}

// Fig8 reproduces "Throughputs of IOR with various number of processes":
// 8-256 processes at 512 KB requests; columns compare the default 64 KB
// layout, the best fixed layout, a random layout, and HARL.
func Fig8(o Options) (*Table, error) {
	t := &Table{
		Title: "Fig 8: IOR throughput by process count (512KB requests)",
		Columns: []string{
			"64K read", "64K write", "bestfix read", "bestfix write",
			"rand read", "rand write", "HARL read", "HARL write",
		},
	}
	clusterCfg := o.clusterDefault()
	randPair := o.randomPairs()[0]
	for _, procs := range []int{8, 32, 128, 256} {
		cfg := o.iorConfig(procs, 512<<10)
		def, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: 64 << 10, S: 64 << 10}), iorWorkload(cfg))
		if err != nil {
			return nil, err
		}
		bestR, bestW := def.ReadMBs(), def.WriteMBs()
		for _, stripe := range o.FixedStripes {
			res, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: stripe, S: stripe}), iorWorkload(cfg))
			if err != nil {
				return nil, err
			}
			if res.ReadMBs() > bestR {
				bestR = res.ReadMBs()
			}
			if res.WriteMBs() > bestW {
				bestW = res.WriteMBs()
			}
		}
		rnd, err := runOn(o, fixed(clusterCfg, randPair), iorWorkload(cfg))
		if err != nil {
			return nil, err
		}
		hres, _, err := harlIOR(o, clusterCfg, cfg, opAny)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d procs", procs),
			def.ReadMBs(), def.WriteMBs(), bestR, bestW,
			rnd.ReadMBs(), rnd.WriteMBs(), hres.ReadMBs(), hres.WriteMBs())
	}
	return t, nil
}

// Fig9 reproduces "Throughputs of IOR with various request sizes":
// 128 KB and 1024 KB requests across the layout set.
func Fig9(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 9: IOR throughput by request size (16 procs)",
		Columns: []string{"read MB/s", "write MB/s"},
	}
	clusterCfg := o.clusterDefault()
	for _, reqSize := range []int64{128 << 10, 1024 << 10} {
		cfg := o.iorConfig(o.Ranks, reqSize)
		for _, stripe := range o.FixedStripes {
			res, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: stripe, S: stripe}), iorWorkload(cfg))
			if err != nil {
				return nil, err
			}
			t.Add(fmt.Sprintf("req %dK / %dK", reqSize>>10, stripe>>10), res.ReadMBs(), res.WriteMBs())
		}
		rnd, err := runOn(o, fixed(clusterCfg, o.randomPairs()[0]), iorWorkload(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("req %dK / rand", reqSize>>10), rnd.ReadMBs(), rnd.WriteMBs())
		hres, plan, err := harlIOR(o, clusterCfg, cfg, opAny)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("req %dK / HARL %v", reqSize>>10, planPair(plan)), hres.ReadMBs(), hres.WriteMBs())
	}
	return t, nil
}

// Fig10 reproduces "Throughputs of IOR with various file server
// configurations": HServer:SServer ratios 7:1, 6:2 (default) and 2:6.
func Fig10(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 10: IOR throughput by server ratio (512KB requests)",
		Columns: []string{"read MB/s", "write MB/s"},
	}
	for _, ratio := range [][2]int{{7, 1}, {6, 2}, {2, 6}} {
		clusterCfg := o.clusterRatio(ratio[0], ratio[1])
		cfg := o.iorConfig(o.Ranks, 512<<10)
		def, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: 64 << 10, S: 64 << 10}), iorWorkload(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d:%d 64K", ratio[0], ratio[1]), def.ReadMBs(), def.WriteMBs())
		rnd, err := runOn(o, fixed(clusterCfg, o.randomPairs()[0]), iorWorkload(cfg))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d:%d rand", ratio[0], ratio[1]), rnd.ReadMBs(), rnd.WriteMBs())
		hres, plan, err := harlIOR(o, clusterCfg, cfg, opAny)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d:%d HARL %v", ratio[0], ratio[1], planPair(plan)), hres.ReadMBs(), hres.WriteMBs())
	}
	return t, nil
}

// Fig11 reproduces "I/O throughputs with non-uniform workloads": the
// modified four-region IOR file, where HARL's region division must give
// each region its own stripes.
func Fig11(o Options) (*Table, error) {
	t := &Table{
		Title:   "Fig 11: non-uniform four-region IOR",
		Columns: []string{"read MB/s", "write MB/s", "regions"},
	}
	clusterCfg := o.clusterDefault()
	mcfg := o.multiConfig()

	for _, stripe := range o.FixedStripes {
		res, err := runOn(o, fixed(clusterCfg, harl.StripePair{H: stripe, S: stripe}), multiWorkload(mcfg))
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%dK", stripe>>10), res.ReadMBs(), res.WriteMBs(), 1)
	}
	rnd, err := runOn(o, fixed(clusterCfg, o.randomPairs()[0]), multiWorkload(mcfg))
	if err != nil {
		return nil, err
	}
	t.Add("rand", rnd.ReadMBs(), rnd.WriteMBs(), 1)

	pl, err := o.planner(clusterCfg)
	if err != nil {
		return nil, err
	}
	plan, err := pl.Analyze(mcfg.Trace())
	if err != nil {
		return nil, err
	}
	res, err := runOn(o, scenario{cluster: clusterCfg, rst: &plan.RST}, multiWorkload(mcfg))
	if err != nil {
		return nil, err
	}
	t.Add("HARL", res.ReadMBs(), res.WriteMBs(), float64(len(plan.RST.Entries)))
	return t, nil
}

// multiConfig scales the paper's 256MB/1GB/2GB/4GB four-region file to
// the option's file size (the paper's total is 7.25 GB).
func (o Options) multiConfig() ior.MultiConfig {
	m := ior.DefaultMulti()
	m.Ranks = o.Ranks
	m.RanksPerNode = o.ranksPerNode(o.Ranks)
	m.Seed = o.Seed
	scale := float64(o.FileSize) / float64(16<<30)
	for i := range m.Regions {
		size := int64(float64(m.Regions[i].Size) * scale * 2)
		// Keep each region large enough for every rank's slab.
		if min := m.Regions[i].RequestSize * int64(o.Ranks) * 4; size < min {
			size = min
		}
		m.Regions[i].Size = size
	}
	return m
}
