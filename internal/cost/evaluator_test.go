package cost

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"harl/internal/device"
)

func evalParams() Params {
	h := DeviceFit{AlphaMin: 3e-3, AlphaMax: 7e-3, Beta: 1.0 / (100 << 20)}
	return Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []TierParams{
			{Name: "hserver", Count: 6, Read: h, Write: h},
			{Name: "sserver", Count: 2,
				Read:  DeviceFit{AlphaMin: 6e-4, AlphaMax: 1.2e-3, Beta: 1.0 / (400 << 20)},
				Write: DeviceFit{AlphaMin: 8e-4, AlphaMax: 1.6e-3, Beta: 1.0 / (200 << 20)}},
		},
	}
}

// TestEvaluatorBitIdentical pins the determinism contract: the
// evaluator must reproduce Params.RequestBreakdown's total to the last
// bit across candidates (including the H==0 / S==0 extremes and three
// tiers), operations and offsets far beyond one striping round.
func TestEvaluatorBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, c := range []struct {
		p       Params
		stripes [][]int64
	}{
		{evalParams(), [][]int64{{4 << 10, 8 << 10}, {0, 64 << 10}, {64 << 10, 0}, {36 << 10, 148 << 10}, {1 << 20, 2 << 20}}},
		{threeTier(), [][]int64{{16 << 10, 36 << 10, 40 << 10}, {0, 64 << 10, 128 << 10}, {4 << 10, 0, 8 << 10}}},
	} {
		for _, stripes := range c.stripes {
			e, err := c.p.NewEvaluator(stripes...)
			if err != nil {
				t.Fatalf("stripes %v: %v", stripes, err)
			}
			for trial := 0; trial < 100; trial++ {
				off := rng.Int63n(1 << 32)
				size := rng.Int63n(4<<20) + 1
				op := device.Read
				if trial%2 == 1 {
					op = device.Write
				}
				want := c.p.RequestBreakdown(op, off, size, stripes...).Total()
				got := e.RequestCost(op, off, size)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("stripes %v op %v (%d,%d): evaluator %v != direct %v", stripes, op, off, size, got, want)
				}
			}
		}
	}
}

func TestEvaluatorReset(t *testing.T) {
	p := evalParams()
	e, err := p.NewEvaluator(4<<10, 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Score under the first pair, then repin and re-verify: a stale
	// geometry would surface as a cost mismatch.
	e.RequestCost(device.Read, 12<<10, 512<<10)
	if err := e.Reset(16<<10, 64<<10); err != nil {
		t.Fatal(err)
	}
	if got := e.Stripes(); !slices.Equal(got, []int64{16 << 10, 64 << 10}) {
		t.Fatalf("Stripes() = %v", got)
	}
	// A rejected candidate leaves the previous one pinned.
	if err := e.Reset(0, 0); err == nil {
		t.Fatal("Reset to 0-0 accepted")
	}
	if err := e.Reset(4096); err == nil {
		t.Fatal("Reset with one stripe for two tiers accepted")
	}
	if got := e.Stripes(); !slices.Equal(got, []int64{16 << 10, 64 << 10}) {
		t.Fatalf("after rejected Resets, Stripes() = %v", got)
	}
	want := p.RequestCost(device.Read, 12<<10, 512<<10, 16<<10, 64<<10)
	if got := e.RequestCost(device.Read, 12<<10, 512<<10); got != want {
		t.Fatalf("after Reset: %v != %v", got, want)
	}
}

func TestEvaluatorErrors(t *testing.T) {
	p := evalParams()
	if _, err := p.NewEvaluator(0, 0); err == nil {
		t.Fatal("0-0 pair accepted")
	}
	if _, err := p.NewEvaluator(-4096, 8192); err == nil {
		t.Fatal("negative stripe accepted")
	}
	e, err := p.NewEvaluator(4096, 8192)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.NewEvaluator(4096, 8192, 4096); err == nil {
		t.Fatal("three stripes for two tiers accepted")
	}
	if got := e.RequestCost(device.Read, 0, 0); got != 0 {
		t.Fatalf("zero-size cost = %v", got)
	}
}

var costSink float64

// TestRequestCostAllocations pins the one cover loop's callers: up to
// four tiers, Params builds its geometry and loads on the stack, and an
// Evaluator scores into its own scratch.
func TestRequestCostAllocations(t *testing.T) {
	p, p3 := evalParams(), threeTier()
	e, err := p.NewEvaluator(16<<10, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := p3.NewEvaluator(16<<10, 36<<10, 40<<10)
	if err != nil {
		t.Fatal(err)
	}
	stripes := []int64{16 << 10, 36 << 10, 40 << 10}
	var off int64
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"Params.RequestCost", func() { costSink = p.RequestCost(device.Write, off, 512<<10, 16<<10, 128<<10) }},
		{"Params.RequestCost/three-tier", func() { costSink = p3.RequestCost(device.Read, off, 512<<10, stripes...) }},
		{"Evaluator.RequestCost", func() { costSink = e.RequestCost(device.Read, off, 512<<10) }},
		{"Evaluator.RequestCost/three-tier", func() { costSink = e3.RequestCost(device.Write, off, 512<<10) }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			off += 4096
			c.fn()
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per call, want 0", c.name, allocs)
		}
	}
}
