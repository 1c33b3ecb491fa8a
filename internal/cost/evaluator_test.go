package cost

import (
	"math"
	"math/rand"
	"testing"

	"harl/internal/device"
)

func evalParams() Params {
	return Params{
		M: 6, N: 2,
		NetUnit:   1.0 / (117 << 20),
		AlphaHMin: 3e-3, AlphaHMax: 7e-3, BetaH: 1.0 / (100 << 20),
		AlphaSRMin: 6e-4, AlphaSRMax: 1.2e-3, BetaSR: 1.0 / (400 << 20),
		AlphaSWMin: 8e-4, AlphaSWMax: 1.6e-3, BetaSW: 1.0 / (200 << 20),
	}
}

// TestEvaluatorBitIdentical pins the determinism contract: the cached
// evaluator must reproduce Params.RequestCost to the last bit across
// pairs (including the H==0 / S==0 extremes), operations, and offsets
// far beyond one striping round.
func TestEvaluatorBitIdentical(t *testing.T) {
	p := evalParams()
	rng := rand.New(rand.NewSource(21))
	pairs := [][2]int64{
		{4 << 10, 8 << 10},
		{0, 64 << 10},
		{64 << 10, 0},
		{36 << 10, 148 << 10},
		{1 << 20, 2 << 20},
	}
	for _, pair := range pairs {
		e, err := p.NewEvaluator(pair[0], pair[1])
		if err != nil {
			t.Fatalf("pair %v: %v", pair, err)
		}
		for trial := 0; trial < 300; trial++ {
			off := rng.Int63n(1 << 32)
			size := rng.Int63n(4<<20) + 1
			op := device.Read
			if trial%2 == 1 {
				op = device.Write
			}
			want := p.RequestCost(op, off, size, pair[0], pair[1])
			got := e.RequestCost(op, off, size)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pair %v op %v (%d,%d): evaluator %v != direct %v", pair, op, off, size, got, want)
			}
			wb, gb := p.RequestBreakdown(op, off, size, pair[0], pair[1]), e.RequestBreakdown(op, off, size)
			if wb != gb {
				t.Fatalf("breakdown mismatch: %+v != %+v", gb, wb)
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
	// Warm the cache under the first pair, then repin and re-verify: a
	// stale distribution would surface as a cost mismatch.
	e.RequestCost(device.Read, 12<<10, 512<<10)
	if err := e.Reset(16<<10, 64<<10); err != nil {
		t.Fatal(err)
	}
	if h, s := e.Pair(); h != 16<<10 || s != 64<<10 {
		t.Fatalf("Pair() = (%d,%d)", h, s)
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
	if err := e.Reset(0, 0); err == nil {
		t.Fatal("Reset to 0-0 accepted")
	}
	if got := e.RequestCost(device.Read, 0, 0); got != 0 {
		t.Fatalf("zero-size cost = %v", got)
	}
}

var costSink float64

// TestRequestCostAllocations pins the one cover loop's callers: the
// two-tier paths build their geometry and loads on the stack, and the
// k-tier path allocates only its tier counts and its loads.
func TestRequestCostAllocations(t *testing.T) {
	p := evalParams()
	e, err := p.NewEvaluator(16<<10, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	mp := MultiOf(p)
	stripes := []int64{16 << 10, 128 << 10}
	var off int64
	for _, c := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"Params.RequestCost", 0, func() { costSink = p.RequestCost(device.Write, off, 512<<10, 16<<10, 128<<10) }},
		{"Evaluator.RequestCostDirect", 0, func() { costSink = e.RequestCostDirect(device.Read, off, 512<<10) }},
		{"MultiParams.RequestBreakdown", 2, func() { costSink = mp.RequestBreakdown(device.Read, off, 512<<10, stripes).Total() }},
	} {
		allocs := testing.AllocsPerRun(100, func() {
			off += 4096
			c.fn()
		})
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs per call, want <= %v", c.name, allocs, c.max)
		}
	}
}
