package harl

import (
	"math/rand"
	"testing"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/trace"
)

// BenchmarkAlgorithm2 measures the exhaustive stripe-pair search for a
// 512 KB-average region — the off-line cost the paper argues is
// acceptable (Section III-E).
func BenchmarkAlgorithm2(b *testing.B) {
	opt := Optimizer{Params: modelParams()}
	tr := uniformTrace(256, 512<<10, device.Read, 1)
	tr.SortByOffset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.OptimizeRegion(tr.Records, 0, 512<<10)
	}
}

// BenchmarkTieredCoordinateDescent measures the multi-tier search on a
// three-profile system.
func BenchmarkTieredCoordinateDescent(b *testing.B) {
	opt := Optimizer{Params: threeTierParams()}
	tr := uniformTrace(256, 512<<10, device.Read, 1)
	tr.SortByOffset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.OptimizeStripes(tr.Records, 0, 512<<10)
	}
}

// searchVariants is the ablation ladder the perf work is measured on:
// the seed's serial uncached search, each layer alone, and the full
// cached+pruned search serial and parallel. All variants return
// bit-identical results (see TestOptimizeRegionParallelBitIdentical).
func searchVariants(params cost.Params) []struct {
	name string
	opt  Optimizer
} {
	return []struct {
		name string
		opt  Optimizer
	}{
		{"seed-serial", Optimizer{Params: params, Parallelism: 1, noCache: true, noPrune: true}},
		{"cache-only", Optimizer{Params: params, Parallelism: 1, noPrune: true}},
		{"prune-only", Optimizer{Params: params, Parallelism: 1, noCache: true}},
		{"cache+prune", Optimizer{Params: params, Parallelism: 1}},
		{"parallel", Optimizer{Params: params}},
	}
}

// BenchmarkOptimizeRegion measures one region's grid search — a single
// huge IOR-uniform region, the worst case for region-level parallelism —
// across the ablation ladder.
func BenchmarkOptimizeRegion(b *testing.B) {
	tr := uniformTrace(256, 512<<10, device.Read, 1)
	tr.SortByOffset()
	for _, v := range searchVariants(modelParams()) {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.opt.OptimizeRegion(tr.Records, 0, 512<<10)
			}
		})
	}
}

// BenchmarkAnalyze measures the whole Analysis Phase on a multi-region
// four-phase trace (the acceptance workload for the parallel planner)
// across the ablation ladder, on a coarse 16 KB grid with 32 sampled
// requests per region. The default-params cases run the planner as
// shipped (4 KB grid, 128 sampled requests) on fourRegionTrace, on two
// tiers and, through AnalyzeTiered, on three.
func BenchmarkAnalyze(b *testing.B) {
	tr := fourPhaseTrace()
	for _, v := range searchVariants(modelParams()) {
		b.Run(v.name, func(b *testing.B) {
			pl := Planner{
				Params:      v.opt.Params,
				ChunkSize:   16 << 20,
				MaxRequests: 32,
				Step:        16 << 10,
				Parallelism: v.opt.Parallelism,
				noCache:     v.opt.noCache,
				noPrune:     v.opt.noPrune,
			}
			for i := 0; i < b.N; i++ {
				if _, err := pl.Analyze(tr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	four := fourRegionTrace()
	for _, par := range []struct {
		name string
		n    int
	}{{"default-params/serial", 1}, {"default-params/parallel", 0}} {
		b.Run(par.name, func(b *testing.B) {
			pl := Planner{Params: modelParams(), Step: DefaultStep, MaxRequests: DefaultMaxRequests, Parallelism: par.n}
			for i := 0; i < b.N; i++ {
				if _, err := pl.Analyze(four); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("three-tier", func(b *testing.B) {
		pl := Planner{Params: threeTierParams(), Parallelism: 1}
		for i := 0; i < b.N; i++ {
			if _, err := pl.AnalyzeTiered(four); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// fourPhaseTrace is four consecutive phases of 200 sequential reads
// each, of 64 KB, 256 KB, 1 MB and 4 MB requests.
func fourPhaseTrace() *trace.Trace {
	tr := &trace.Trace{}
	off := int64(0)
	for phase := 0; phase < 4; phase++ {
		size := int64(64<<10) << uint(2*phase)
		for i := 0; i < 200; i++ {
			tr.Records = append(tr.Records, record(device.Read, off, size))
			off += size
		}
	}
	return tr
}

// fourRegionTrace is the IOR four-region workload's shape at a small
// scale: consecutive regions of 64 KB, 256 KB, 512 KB and 2 MB requests
// at random request-aligned offsets, each request written and then read
// back.
func fourRegionTrace() *trace.Trace {
	const n = 256 // requests per region
	rng := rand.New(rand.NewSource(5))
	tr := &trace.Trace{}
	var base int64
	for _, size := range []int64{64 << 10, 256 << 10, 512 << 10, 2 << 20} {
		for i := 0; i < n; i++ {
			off := base + rng.Int63n(n)*size
			tr.Records = append(tr.Records, record(device.Write, off, size), record(device.Read, off, size))
		}
		base += n * size
	}
	tr.SortByOffset()
	return tr
}

// BenchmarkRequestCost measures one cost-model evaluation, the inner
// loop of both searches.
func BenchmarkRequestCost(b *testing.B) {
	p := modelParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RequestCost(device.Read, int64(i)*4096, 512<<10, 32<<10, 160<<10)
	}
}
