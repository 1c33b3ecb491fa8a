package harl

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/trace"
)

// threeTierParams: HDD + SATA-SSD + NVMe.
func threeTierParams() cost.Params {
	return cost.Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []cost.TierParams{
			{Name: "hdd", Count: 6,
				Read:  cost.DeviceFit{AlphaMin: 3e-4, AlphaMax: 7e-4, Beta: 1.0 / (20 << 20)},
				Write: cost.DeviceFit{AlphaMin: 3e-4, AlphaMax: 7e-4, Beta: 1.0 / (19 << 20)}},
			{Name: "ssd", Count: 1,
				Read:  cost.DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 1.0 / (200 << 20)},
				Write: cost.DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 1.0 / (180 << 20)}},
			{Name: "nvme", Count: 1,
				Read:  cost.DeviceFit{AlphaMin: 5e-5, AlphaMax: 1e-4, Beta: 1.0 / (800 << 20)},
				Write: cost.DeviceFit{AlphaMin: 5e-5, AlphaMax: 1e-4, Beta: 1.0 / (600 << 20)}},
		},
	}
}

func TestTieredOptimizerTwoTierMatchesAlgorithm2(t *testing.T) {
	// On a two-tier system, coordinate descent must reach (at least) the
	// quality of Algorithm 2's exhaustive grid.
	opt := Optimizer{Params: modelParams()}
	tr := uniformTrace(64, 512<<10, device.Read, 21)
	tr.SortByOffset()

	pair, exhaustive := opt.OptimizeRegion(tr.Records, 0, 512<<10)
	step, sample, rBar := opt.grid(tr.Records, 512<<10)
	rs := opt.descend(sample, 0, step, rBar)
	if len(rs.Best) != 2 {
		t.Fatalf("stripes = %v", rs.Best)
	}
	if rs.Cost > exhaustive*1.02 {
		t.Fatalf("coordinate descent cost %v materially worse than Algorithm 2 %v (pair %v vs %v)",
			rs.Cost, exhaustive, rs.Best, pair)
	}
	checkAccounting(t, rs)
}

func TestTieredOptimizerOrdersStripesBySpeed(t *testing.T) {
	// Three tiers, faster tiers should not get smaller stripes than the
	// slowest tier: the optimum shifts bytes toward fast devices.
	opt := Optimizer{Params: threeTierParams()}
	tr := uniformTrace(64, 512<<10, device.Read, 22)
	tr.SortByOffset()
	stripes, c := opt.OptimizeStripes(tr.Records, 0, 512<<10)
	if len(stripes) != 3 || c <= 0 {
		t.Fatalf("stripes = %v cost %v", stripes, c)
	}
	if stripes[1] < stripes[0] || stripes[2] < stripes[0] {
		t.Fatalf("faster tiers got smaller stripes than HDD: %v", stripes)
	}
	if stripes[1] == 0 && stripes[2] == 0 {
		t.Fatalf("optimum ignores the fast tiers: %v", stripes)
	}
}

func TestTieredOptimizerSkipsEmptyTiers(t *testing.T) {
	params := threeTierParams()
	params.Tiers[1].Count = 0
	opt := Optimizer{Params: params}
	tr := uniformTrace(32, 256<<10, device.Write, 23)
	tr.SortByOffset()
	stripes, _ := opt.OptimizeStripes(tr.Records, 0, 256<<10)
	if stripes[1] != 0 {
		t.Fatalf("empty tier received a stripe: %v", stripes)
	}
}

// One tier is coordinate descent's degenerate case: a single line search
// over the grid. It must find exactly the h-only system's exhaustive
// optimum, since an empty tier changes no cost.
func TestTieredOptimizerOneTierMatchesHOnly(t *testing.T) {
	tr := uniformTrace(32, 512<<10, device.Write, 26)
	tr.SortByOffset()
	hOnly := modelParams()
	hOnly.Tiers[1].Count = 0
	pair, want := Optimizer{Params: hOnly}.OptimizeRegion(tr.Records, 0, 512<<10)
	one := modelParams()
	one.Tiers = one.Tiers[:1]
	stripes, got := Optimizer{Params: one}.OptimizeStripes(tr.Records, 0, 512<<10)
	if len(stripes) != 1 || stripes[0] != pair.H || math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("one tier: %v cost %v, h-only system: %v cost %v", stripes, got, pair, want)
	}
}

func TestTieredOptimizerPanics(t *testing.T) {
	opt := Optimizer{Params: threeTierParams()}
	mustPanic(t, func() { opt.OptimizeStripes(nil, 0, 512) })
	recs := uniformTrace(4, 4096, device.Read, 24).Records
	// OptimizeRegion returns a pair, so it plans two tiers only.
	mustPanic(t, func() { opt.OptimizeRegion(recs, 0, 4096) })
	bad := Optimizer{Params: cost.Params{}}
	mustPanic(t, func() { bad.OptimizeStripes(recs, 0, 4096) })
	neg := Optimizer{Params: threeTierParams(), Step: -4}
	mustPanic(t, func() { neg.OptimizeStripes(recs, 0, 4096) })
}

// TestTieredOptimizerAllocations pins coordinate descent's allocations:
// the worker reuses one evaluator, memo and candidate across every line
// search, so a wider grid (a larger R̄) costs no more allocations.
func TestTieredOptimizerAllocations(t *testing.T) {
	opt := Optimizer{Params: threeTierParams()}
	tr := uniformTrace(256, 512<<10, device.Read, 1)
	tr.SortByOffset()
	var allocs []float64
	for _, avg := range []float64{64 << 10, 512 << 10, 2 << 20} {
		allocs = append(allocs, testing.AllocsPerRun(2, func() { opt.OptimizeStripes(tr.Records, 0, avg) }))
	}
	if allocs[0] > 64 || allocs[1] != allocs[0] || allocs[2] != allocs[0] {
		t.Fatalf("allocations per search at R̄ = 64 KB, 512 KB, 2 MB: %v, want at most 64 and equal", allocs)
	}
}

func TestTieredRSTValidate(t *testing.T) {
	good := &TieredRST{
		Counts: []int{6, 1, 1},
		Entries: []TieredRSTEntry{
			{Offset: 0, End: 100, Stripes: []int64{4096, 8192, 16384}},
			{Offset: 100, End: 200, Stripes: []int64{0, 8192, 16384}},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []*TieredRST{
		{},
		{Counts: []int{1}, Entries: []TieredRSTEntry{{Offset: 0, End: 0, Stripes: []int64{1}}}},
		{Counts: []int{1}, Entries: []TieredRSTEntry{{Offset: 0, End: 10, Stripes: []int64{1, 2}}}},
		{Counts: []int{1}, Entries: []TieredRSTEntry{{Offset: 0, End: 10, Stripes: []int64{-1}}}},
		{Counts: []int{1}, Entries: []TieredRSTEntry{{Offset: 0, End: 10, Stripes: []int64{0}}}},
		{Counts: []int{1}, Entries: []TieredRSTEntry{{Offset: 5, End: 10, Stripes: []int64{1}}}},
		{Counts: []int{1}, Entries: []TieredRSTEntry{
			{Offset: 0, End: 10, Stripes: []int64{1}},
			{Offset: 20, End: 30, Stripes: []int64{1}},
		}},
	}
	for i, rst := range bad {
		if rst.Validate() == nil {
			t.Errorf("bad tiered RST %d accepted", i)
		}
	}
}

func TestTieredPlannerMultiPhase(t *testing.T) {
	// A two-phase workload on a three-tier system: the planner must find
	// both regions and give each a valid per-tier assignment, the same at
	// every Parallelism, with a profile that agrees with the plan.
	tr := &trace.Trace{}
	off := int64(0)
	for i := 0; i < 80; i++ {
		tr.Records = append(tr.Records, record(device.Read, off, 2<<20))
		off += 2 << 20
	}
	for i := 0; i < 80; i++ {
		tr.Records = append(tr.Records, record(device.Write, off, 64<<10))
		off += 64 << 10
	}
	pl := Planner{Params: threeTierParams(), ChunkSize: 16 << 20, MaxRequests: 32, Parallelism: 1}
	plan, err := pl.AnalyzeTiered(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.RST.Entries) < 2 {
		t.Fatalf("phases not split: %d entries", len(plan.RST.Entries))
	}
	if err := plan.RST.Validate(); err != nil {
		t.Fatal(err)
	}
	if plan.ModelCost <= 0 {
		t.Fatalf("model cost = %v", plan.ModelCost)
	}
	profiled := pl
	profiled.Parallelism = 4
	profiled.Profile = &SearchProfile{}
	again, err := profiled.AnalyzeTiered(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, plan) {
		t.Fatalf("Parallelism 4 plan %+v differs from serial %+v", again, plan)
	}
	for i, rs := range profiled.Profile.Regions {
		checkAccounting(t, rs)
		if !slices.Equal(rs.Best, plan.RST.Entries[i].Stripes) {
			t.Fatalf("region %d profile best %v != plan %v", i, rs.Best, plan.RST.Entries[i].Stripes)
		}
	}
}

func TestTieredPlannerErrors(t *testing.T) {
	pl := Planner{Params: threeTierParams()}
	if _, err := pl.AnalyzeTiered(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	tr := uniformTrace(4, 4096, device.Read, 25)
	if _, err := (Planner{}).AnalyzeTiered(tr); err == nil {
		t.Fatal("zero params accepted")
	}
	if _, err := pl.Analyze(tr); err == nil {
		t.Fatal("Analyze accepted three tiers")
	}
}

func record(op device.Op, off, size int64) trace.Record {
	return trace.Record{Op: op, Offset: off, Size: size, End: 1}
}
