package cost

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"harl/internal/device"
	"harl/internal/netsim"
)

// testParams gives round numbers for hand-worked checks.
func testParams() Params {
	hdd := DeviceFit{AlphaMin: 4e-3, AlphaMax: 8e-3, Beta: 1e-8} // 4-8ms, 100MB/s
	return Params{
		NetUnit: 1e-8, // 100 MB/s
		Tiers: []TierParams{
			{Name: "hserver", Count: 2, Read: hdd, Write: hdd},
			{Name: "sserver", Count: 1,
				Read:  DeviceFit{AlphaMin: 1e-4, AlphaMax: 2e-4, Beta: 2e-9},  // 0.1-0.2ms, 500MB/s
				Write: DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 5e-9}}, // 0.2-0.4ms, 200MB/s
		},
	}
}

func TestValidate(t *testing.T) {
	if err := testParams().Validate(); err != nil {
		t.Fatalf("good params rejected: %v", err)
	}
	mutations := []func(*Params){
		func(p *Params) { p.Tiers[0].Count, p.Tiers[1].Count = 0, 0 },
		func(p *Params) { p.Tiers[0].Count = -1 },
		func(p *Params) { p.Tiers = nil },
		func(p *Params) { p.NetUnit = -1 },
		func(p *Params) { p.Tiers[0].Read.AlphaMax = p.Tiers[0].Read.AlphaMin - 1 },
		func(p *Params) { p.Tiers[1].Read.AlphaMin = -1 },
		func(p *Params) { p.Tiers[1].Write.AlphaMax = p.Tiers[1].Write.AlphaMin - 1 },
		func(p *Params) { p.Tiers[0].Read.Beta = -1 },
		func(p *Params) { p.Tiers[1].Write.Beta = -1 },
	}
	for i, mutate := range mutations {
		p := testParams()
		mutate(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestExpectedMaxUniform(t *testing.T) {
	// One server: expectation is the midpoint.
	if got := expectedMaxUniform(2, 4, 1); math.Abs(got-3) > 1e-12 {
		t.Fatalf("m=1: %v, want 3", got)
	}
	// Many servers: approaches the max.
	if got := expectedMaxUniform(2, 4, 1000); got < 3.99 {
		t.Fatalf("m=1000: %v, want ~4", got)
	}
	if expectedMaxUniform(2, 4, 0) != 0 {
		t.Fatal("m=0 should contribute nothing")
	}
	// Degenerate range.
	if got := expectedMaxUniform(5, 5, 7); got != 5 {
		t.Fatalf("point distribution: %v", got)
	}
}

func TestRequestBreakdownHandWorked(t *testing.T) {
	p := testParams()
	// Layout M=2,N=1,h=10KB,s=30KB (round 50KB). Request [0K, 50KB):
	// covers one full round: s_m=10K on each of 2 HServers, s_n=30K on 1
	// SServer.
	const k = 1 << 10
	b := p.RequestBreakdown(device.Read, 0, 50*k, 10*k, 30*k)
	// T_X = max(10K,30K)*t = 30720 * 1e-8
	wantNet := 30 * k * 1e-8
	if math.Abs(b.Network-wantNet) > 1e-12 {
		t.Fatalf("network = %v, want %v", b.Network, wantNet)
	}
	// T_S: HServers: 4ms + (2/3)(4ms) = 6.667ms; SServer read:
	// 0.1 + (1/2)(0.1) = 0.15ms; max = HServer term.
	wantStart := 4e-3 + 2.0/3.0*4e-3
	if math.Abs(b.Startup-wantStart) > 1e-9 {
		t.Fatalf("startup = %v, want %v", b.Startup, wantStart)
	}
	// T_T = max(10K*1e-8, 30K*2e-9) = max(102.4us, 61.4us).
	wantXfer := 10 * k * 1e-8
	if math.Abs(b.Transfer-wantXfer) > 1e-12 {
		t.Fatalf("transfer = %v, want %v", b.Transfer, wantXfer)
	}
	if math.Abs(b.Total()-(wantNet+wantStart+wantXfer)) > 1e-12 {
		t.Fatal("total != sum of parts")
	}
}

func TestWriteUsesWriteParameters(t *testing.T) {
	p := testParams()
	p.Tiers[0].Count, p.Tiers[1].Count = 0, 2 // SServers only, h=0
	const size = 1 << 20
	r := p.RequestCost(device.Read, 0, size, 0, 512<<10)
	w := p.RequestCost(device.Write, 0, size, 0, 512<<10)
	if w <= r {
		t.Fatalf("SSD-only write (%v) should cost more than read (%v)", w, r)
	}
}

func TestCostZeroSize(t *testing.T) {
	p := testParams()
	if p.RequestCost(device.Read, 0, 0, 4096, 8192) != 0 {
		t.Fatal("zero-size request should be free")
	}
}

func TestCostPanicsOnUnusableLayout(t *testing.T) {
	p := testParams()
	defer func() {
		if recover() == nil {
			t.Fatal("h=s=0 should panic")
		}
	}()
	p.RequestCost(device.Read, 0, 100, 0, 0)
}

// The model must reproduce the qualitative trade-off HARL exploits: for a
// small request, placing data only on SServers beats the default balanced
// layout, because the HServer startup dominates.
func TestSmallRequestsPreferSServers(t *testing.T) {
	p := testParams()
	p.Tiers[0].Count, p.Tiers[1].Count = 6, 2
	const size = 128 << 10
	balanced := p.RequestCost(device.Read, 0, size, 64<<10, 64<<10)
	ssdOnly := p.RequestCost(device.Read, 0, size, 0, 64<<10)
	if ssdOnly >= balanced {
		t.Fatalf("SSD-only (%v) should beat balanced (%v) for 128KB requests", ssdOnly, balanced)
	}
}

// For a large request, HServer parallelism must start paying for itself:
// with many HServers, an enormous request should prefer spreading over
// everything rather than queueing on two SServers.
func TestLargeRequestsUseBothClasses(t *testing.T) {
	p := testParams()
	p.Tiers[0].Count, p.Tiers[1].Count = 6, 2
	const size = 64 << 20
	spread := p.RequestCost(device.Read, 0, size, 1<<20, 4<<20)
	ssdOnly := p.RequestCost(device.Read, 0, size, 0, 1<<20)
	if spread >= ssdOnly {
		t.Fatalf("spreading 64MB (%v) should beat SSD-only (%v)", spread, ssdOnly)
	}
}

// Property: cost is non-negative and monotone non-decreasing in request
// size for a fixed layout and offset.
func TestCostMonotoneInSizeProperty(t *testing.T) {
	p := testParams()
	p.Tiers[0].Count, p.Tiers[1].Count = 6, 2
	prop := func(a, b uint32, off32 uint32) bool {
		sa, sb := int64(a%(8<<20))+1, int64(b%(8<<20))+1
		if sa > sb {
			sa, sb = sb, sa
		}
		off := int64(off32 % (1 << 24))
		ca := p.RequestCost(device.Read, off, sa, 64<<10, 256<<10)
		cb := p.RequestCost(device.Read, off, sb, 64<<10, 256<<10)
		return ca >= 0 && ca <= cb+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the breakdown terms are individually non-negative and the
// total is their sum.
func TestBreakdownConsistencyProperty(t *testing.T) {
	p := testParams()
	p.Tiers[0].Count, p.Tiers[1].Count = 6, 2
	prop := func(size32, h16, s16 uint16, opBit bool) bool {
		h := int64(h16%128) * 4096
		s := int64(s16%128) * 4096
		if h == 0 && s == 0 {
			return true
		}
		op := device.Read
		if opBit {
			op = device.Write
		}
		b := p.RequestBreakdown(op, 0, int64(size32)+1, h, s)
		if b.Network < 0 || b.Startup < 0 || b.Transfer < 0 {
			return false
		}
		return math.Abs(b.Total()-(b.Network+b.Startup+b.Transfer)) < 1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFitDeviceRecoversProfile(t *testing.T) {
	prof := device.DefaultHDD()
	fit, err := FitDevice(prof, device.Read, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	// β should be close to 1/ReadRate.
	wantBeta := 1 / prof.ReadRate
	if math.Abs(fit.Beta-wantBeta)/wantBeta > 0.15 {
		t.Fatalf("beta = %v, want ~%v", fit.Beta, wantBeta)
	}
	// The startup range should bracket the true range (within fit noise).
	wantLo, wantHi := prof.ReadStartupMin.Seconds(), prof.ReadStartupMax.Seconds()
	if fit.AlphaMin > wantLo*1.3 || fit.AlphaMax < wantHi*0.7 {
		t.Fatalf("alpha fit [%v,%v], true [%v,%v]", fit.AlphaMin, fit.AlphaMax, wantLo, wantHi)
	}
	if _, err := FitDevice(prof, device.Read, 1, 1); err == nil {
		t.Fatal("reps < 2 should error")
	}
	bad := prof
	bad.ReadRate = -1
	if _, err := FitDevice(bad, device.Read, 10, 1); err == nil {
		t.Fatal("bad profile should error")
	}
}

func TestFitNetworkApproximatesBandwidth(t *testing.T) {
	cfg := netsim.GigabitEthernet()
	unit, err := FitNetwork(cfg, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / cfg.Bandwidth
	// The probe includes latency, so the unit time is slightly above 1/B.
	if unit < want || unit > want*1.5 {
		t.Fatalf("unit = %v, want within [%v, %v]", unit, want, want*1.5)
	}
	if _, err := FitNetwork(netsim.Config{}, 5, 1); err == nil {
		t.Fatal("bad config should error")
	}
	if _, err := FitNetwork(cfg, 0, 1); err == nil {
		t.Fatal("zero reps should error")
	}
}

func TestCalibrateEndToEnd(t *testing.T) {
	p, err := Calibrate(device.DefaultHDD(), device.DefaultSSD(), netsim.GigabitEthernet(), 6, 2, 500, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("calibrated params invalid: %v", err)
	}
	if len(p.Tiers) != 2 || p.Tiers[0].Count != 6 || p.Tiers[1].Count != 2 {
		t.Fatalf("tiers = %+v", p.Tiers)
	}
	// The calibrated model must preserve the class ordering the paper's
	// Table I describes: HServer startup >> SServer startup, SSD write
	// slower than SSD read.
	h, s := p.Tiers[0], p.Tiers[1]
	if h.Write != h.Read {
		t.Fatal("HServers should share one profile across operations")
	}
	if h.Read.AlphaMax <= s.Read.AlphaMax {
		t.Fatal("HServer startup should exceed SServer startup")
	}
	if s.Write.Beta <= s.Read.Beta {
		t.Fatal("SServer write unit time should exceed read")
	}
	if h.Read.Beta <= s.Read.Beta {
		t.Fatal("HServer transfer should be slower than SServer read")
	}
}

func TestCalibrateDeterministic(t *testing.T) {
	a, err := Calibrate(device.DefaultHDD(), device.DefaultSSD(), netsim.GigabitEthernet(), 6, 2, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(device.DefaultHDD(), device.DefaultSSD(), netsim.GigabitEthernet(), 6, 2, 200, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different params:\n%+v\n%+v", a, b)
	}
}
