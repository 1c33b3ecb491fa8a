package baselines

import (
	"math/rand"
	"reflect"
	"testing"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/trace"
)

// modelParams mirrors the calibrated default system: 6H + 2S.
func modelParams() cost.Params {
	return cost.Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []cost.TierParams{
			{Name: "hserver", Count: 6,
				Read:  cost.DeviceFit{AlphaMin: 3e-4, AlphaMax: 7e-4, Beta: 1.0 / (20 << 20)},
				Write: cost.DeviceFit{AlphaMin: 3e-4, AlphaMax: 7e-4, Beta: 1.0 / (20 << 20)}},
			{Name: "sserver", Count: 2,
				Read:  cost.DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 1.0 / (200 << 20)},
				Write: cost.DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 1.0 / (180 << 20)}},
		},
	}
}

// phasedTrace builds a two-phase workload: hot small requests up front,
// cold large requests behind.
func phasedTrace() *trace.Trace {
	tr := &trace.Trace{}
	off := int64(0)
	for i := 0; i < 120; i++ {
		tr.Records = append(tr.Records, trace.Record{Op: device.Read, Offset: off, Size: 64 << 10, End: 1})
		off += 64 << 10
	}
	for i := 0; i < 120; i++ {
		tr.Records = append(tr.Records, trace.Record{Op: device.Read, Offset: off, Size: 1 << 20, End: 1})
		off += 1 << 20
	}
	return tr
}

func TestCARLProducesUnmixedRegions(t *testing.T) {
	pl := CARLPlanner{Params: modelParams(), ChunkSize: 1 << 20, MaxRequests: 32}
	plan, err := pl.Analyze(phasedTrace())
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.RST.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, e := range plan.RST.Entries {
		if e.H != 0 && e.S != 0 {
			t.Fatalf("entry %d is mixed (%d,%d): CARL must place each region on one class", i, e.H, e.S)
		}
	}
	// At least one region on each class for this mixed workload with a
	// partial budget.
	ssd := SSDBytes(&plan.RST, 6, 2)
	total := plan.RST.Extent()
	if ssd == 0 || ssd == total {
		t.Fatalf("placement degenerate: %d of %d bytes on SSD", ssd, total)
	}
}

func TestCARLRespectsBudget(t *testing.T) {
	budget := int64(4 << 20)
	pl := CARLPlanner{Params: modelParams(), ChunkSize: 1 << 20, MaxRequests: 32, SSDBudget: budget}
	plan, err := pl.Analyze(phasedTrace())
	if err != nil {
		t.Fatal(err)
	}
	if ssd := SSDBytes(&plan.RST, 6, 2); ssd > budget {
		t.Fatalf("SSD placement %d exceeds budget %d", ssd, budget)
	}
}

func TestCARLPrefersHotRegionsForSSD(t *testing.T) {
	// With a budget that fits only the small-request phase, that phase
	// (which gains most per byte from SSD placement) must get it.
	pl := CARLPlanner{Params: modelParams(), ChunkSize: 1 << 20, MaxRequests: 32, SSDBudget: 16 << 20}
	plan, err := pl.Analyze(phasedTrace())
	if err != nil {
		t.Fatal(err)
	}
	first := plan.RST.Entries[0]
	if first.H != 0 {
		t.Fatalf("hot small-request region not on SSD: %+v", first)
	}
	last := plan.RST.Entries[len(plan.RST.Entries)-1]
	if last.S != 0 {
		t.Fatalf("cold large region not on HDD: %+v", last)
	}
}

func TestCARLModelCostNeverBeatsHARL(t *testing.T) {
	// HARL's search space strictly contains CARL's ({0,s} and {h,0} are
	// candidates of Algorithm 2), so HARL's model cost must be <= CARL's
	// on every region set.
	tr := phasedTrace()
	params := modelParams()
	carl, err := CARLPlanner{Params: params, ChunkSize: 1 << 20, MaxRequests: 32}.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	harlPlan, err := harl.Planner{Params: params, ChunkSize: 1 << 20, MaxRequests: 32}.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	var carlCost, harlCost float64
	for _, r := range carl.Regions {
		carlCost += r.ModelCost
	}
	for _, r := range harlPlan.Regions {
		harlCost += r.ModelCost
	}
	if harlCost > carlCost*1.001 {
		t.Fatalf("HARL model cost %v exceeds CARL's %v", harlCost, carlCost)
	}
}

func TestCARLErrors(t *testing.T) {
	if _, err := (CARLPlanner{}).Analyze(phasedTrace()); err == nil {
		t.Fatal("zero params accepted")
	}
	p := modelParams()
	p.Tiers[1].Count = 0
	if _, err := (CARLPlanner{Params: p}).Analyze(phasedTrace()); err == nil {
		t.Fatal("homogeneous system accepted")
	}
	if _, err := (CARLPlanner{Params: modelParams()}).Analyze(&trace.Trace{}); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := (CARLPlanner{Params: modelParams()}).Analyze(nil); err == nil {
		t.Fatal("nil trace accepted")
	}
}

// CARL plans each class alone on a restricted copy of the parameters;
// the caller's Params, whose tiers the copy would share, stay unchanged.
func TestCARLLeavesParamsUnchanged(t *testing.T) {
	p := modelParams()
	if _, err := (CARLPlanner{Params: p, ChunkSize: 1 << 20, MaxRequests: 32}).Analyze(phasedTrace()); err != nil {
		t.Fatal(err)
	}
	if want := modelParams(); !reflect.DeepEqual(p, want) {
		t.Fatalf("Analyze changed the caller's params:\n got %+v\nwant %+v", p, want)
	}
}

func TestCARLDeterministic(t *testing.T) {
	// Same trace, same plan — no hidden randomness.
	tr := &trace.Trace{}
	rng := rand.New(rand.NewSource(7))
	off := int64(0)
	for i := 0; i < 200; i++ {
		size := int64(rng.Intn(1<<20) + 4096)
		tr.Records = append(tr.Records, trace.Record{Op: device.Read, Offset: off, Size: size, End: 1})
		off += size
	}
	pl := CARLPlanner{Params: modelParams(), ChunkSize: 1 << 20, MaxRequests: 32}
	a, err := pl.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pl.Analyze(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.RST.Entries) != len(b.RST.Entries) {
		t.Fatal("non-deterministic region count")
	}
	for i := range a.RST.Entries {
		if a.RST.Entries[i] != b.RST.Entries[i] {
			t.Fatalf("entry %d differs across runs", i)
		}
	}
}
