package ior

import (
	"fmt"

	"harl/internal/mpiio"
	"harl/internal/trace"
)

// The paper's Section IV-B-5 modifies IOR to drive a non-uniform workload:
// the shared file consists of several regions, each accessed with its own
// request size. MultiConfig reproduces that modified benchmark.

// RegionSpec is one region of the non-uniform file.
type RegionSpec struct {
	Size        int64 // region length in bytes
	RequestSize int64 // request size used inside this region
}

// MultiConfig parameterizes the modified IOR run.
type MultiConfig struct {
	Ranks        int
	RanksPerNode int
	Regions      []RegionSpec
	Seed         int64
	// RequestsPerRankPerRegion caps requests; 0 covers each region's
	// rank share once.
	RequestsPerRankPerRegion int
}

// DefaultMulti is the paper's four-region workload: regions of 256 MB,
// 1 GB, 2 GB and 4 GB, with request sizes growing with the region (the
// paper varies them per region; 64 KB to 2 MB spans its Fig. 1(b) sweep).
func DefaultMulti() MultiConfig {
	return MultiConfig{
		Ranks:        16,
		RanksPerNode: 2,
		Regions: []RegionSpec{
			{Size: 256 << 20, RequestSize: 64 << 10},
			{Size: 1 << 30, RequestSize: 256 << 10},
			{Size: 2 << 30, RequestSize: 512 << 10},
			{Size: 4 << 30, RequestSize: 2 << 20},
		},
		Seed: 1,
	}
}

// Validate reports whether the configuration is runnable.
func (c MultiConfig) Validate() error {
	if c.Ranks <= 0 || c.RanksPerNode <= 0 {
		return fmt.Errorf("ior: invalid ranks %d x %d", c.Ranks, c.RanksPerNode)
	}
	if len(c.Regions) == 0 {
		return fmt.Errorf("ior: no regions")
	}
	for i, reg := range c.Regions {
		if reg.RequestSize <= 0 || reg.Size < reg.RequestSize*int64(c.Ranks) {
			return fmt.Errorf("ior: region %d unusable: %+v with %d ranks", i, reg, c.Ranks)
		}
	}
	if c.RequestsPerRankPerRegion < 0 {
		return fmt.Errorf("ior: negative request cap")
	}
	return nil
}

// FileSize returns the total file extent.
func (c MultiConfig) FileSize() int64 {
	var total int64
	for _, r := range c.Regions {
		total += r.Size
	}
	return total
}

// Trace synthesizes the tracing-phase trace for this workload (both
// phases, write then read).
func (c MultiConfig) Trace() *trace.Trace { return traceOf(c.requests()) }

// requests plans every rank's random requests region by region.
func (c MultiConfig) requests() [][]request {
	return planRegions(c.Ranks, c.Regions, c.Seed, c.RequestsPerRankPerRegion, true)
}

// RunMulti executes the non-uniform workload: write phase then read
// phase, each rank walking its per-region requests closed-loop.
func RunMulti(w *mpiio.World, f mpiio.PhantomFile, cfg MultiConfig) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res, err := run(w, f, cfg.requests())
	res.Config = Config{Ranks: cfg.Ranks, RanksPerNode: cfg.RanksPerNode, FileSize: cfg.FileSize()}
	return res, err
}
