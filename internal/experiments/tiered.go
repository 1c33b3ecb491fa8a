package experiments

import (
	"fmt"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
)

// ThreeTier exercises the paper's first future-work item on a measured
// system: a hybrid PFS mixing *three* server performance profiles —
// 6 HDDs, 1 SATA-class SSD and 1 PCI-E SSD. It compares
//
//   - the default fixed 64 KB stripe,
//   - two-tier HARL that lumps both flash devices into one SServer class
//     (calibrated against the slower SATA SSD, the safe blind choice), and
//   - three-tier HARL with the generalized cost model and per-tier
//     coordinate-descent optimizer, which can give the PCI-E card a
//     larger stripe than the SATA drive.
func ThreeTier(o Options) (*Table, error) {
	t := &Table{
		Title:   "Extension: three server performance profiles (6 HDD + 1 SATA-SSD + 1 PCIe-SSD)",
		Columns: []string{"read MB/s", "write MB/s"},
	}
	profiles := make([]device.Profile, 0, 8)
	for i := 0; i < 6; i++ {
		profiles = append(profiles, device.DefaultHDD())
	}
	profiles = append(profiles, device.DefaultSATASSD(), device.DefaultSSD())
	counts := []int{6, 1, 1}

	cfg := o.iorConfig(o.Ranks, 512<<10)
	clusterCfg := o.clusterDefault()
	netCfg := clusterCfg.Network

	runTiered := func(lo layout.Mapper) (ior.Result, error) {
		return runOn(o, scenario{cluster: clusterCfg, profiles: profiles, lo: lo}, iorWorkload(cfg))
	}

	// Baseline: fixed 64 KB everywhere.
	def, err := runTiered(layout.Tiered{Counts: counts, Stripes: []int64{64 << 10, 64 << 10, 64 << 10}})
	if err != nil {
		return nil, fmt.Errorf("threetier default: %w", err)
	}
	t.Add("fixed 64K", def.ReadMBs(), def.WriteMBs())

	tr := cfg.Trace()
	sorted := sortedCopy(tr)
	avg := sorted.Summarize().AvgSize

	// Two-tier-blind HARL: both flash devices form one SServer class,
	// calibrated against the slower SATA SSD.
	blind, err := cost.Calibrate(device.DefaultHDD(), device.DefaultSATASSD(), netCfg, 6, 2, o.Probes, o.Seed+7)
	if err != nil {
		return nil, err
	}
	pair, _ := harl.Optimizer{Params: blind}.OptimizeRegion(sorted.Records, 0, avg)
	res2, err := runTiered(layout.Tiered{Counts: counts, Stripes: []int64{pair.H, pair.S, pair.S}})
	if err != nil {
		return nil, fmt.Errorf("threetier blind: %w", err)
	}
	t.Add(fmt.Sprintf("2-tier HARL %v", pair), res2.ReadMBs(), res2.WriteMBs())

	// Three-tier HARL: per-tier calibration and optimization.
	tierProfiles := []device.Profile{device.DefaultHDD(), device.DefaultSATASSD(), device.DefaultSSD()}
	params, err := cost.CalibrateTiers(tierProfiles, counts, netCfg, o.Probes, o.Seed+8)
	if err != nil {
		return nil, err
	}
	stripes, _ := harl.TieredOptimizer{Params: params}.OptimizeRegion(sorted.Records, 0, avg)
	lo := layout.Tiered{Counts: counts, Stripes: stripes}
	res3, err := runTiered(lo)
	if err != nil {
		return nil, fmt.Errorf("threetier aware: %w", err)
	}
	t.Add(fmt.Sprintf("3-tier HARL %v", lo), res3.ReadMBs(), res3.WriteMBs())
	return t, nil
}
