package cost

import (
	"testing"
	"testing/quick"

	"harl/internal/device"
	"harl/internal/netsim"
	"harl/internal/sim"
)

func TestMultiValidate(t *testing.T) {
	good := threeTier()
	if err := good.Validate(); err != nil {
		t.Fatalf("three-tier params rejected: %v", err)
	}
	bad := []Params{
		{},
		{NetUnit: -1, Tiers: good.Tiers},
		{Tiers: []TierParams{{Count: -1}}},
		{Tiers: []TierParams{{Count: 0}}}, // no servers at all
		{Tiers: []TierParams{{Count: 1, Read: DeviceFit{AlphaMin: 5, AlphaMax: 1}}}},
		{Tiers: []TierParams{{Count: 1, Write: DeviceFit{AlphaMin: -2, AlphaMax: -1}}}},
		{Tiers: []TierParams{{Count: 1, Read: DeviceFit{Beta: -1}}}},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

// Property: a tier with no servers changes no cost, to the last bit.
// The paper's two-tier model is therefore every wider model's restriction
// to its populated tiers, wherever the empty tier sits and whatever its
// stripe.
func TestEmptyTierEquivalenceProperty(t *testing.T) {
	p := testParams()
	p.Tiers[0].Count, p.Tiers[1].Count = 6, 2
	nvme := threeTier().Tiers[2]
	nvme.Count = 0
	wide := p
	wide.Tiers = []TierParams{p.Tiers[0], nvme, p.Tiers[1]}
	prop := func(off32, size32 uint32, h8, s8, x8 uint8, opBit bool) bool {
		h := int64(h8%64) * 4096
		s := int64(s8%64) * 4096
		if h == 0 && s == 0 {
			return true
		}
		op := device.Read
		if opBit {
			op = device.Write
		}
		off := int64(off32 % (8 << 20))
		size := int64(size32%(4<<20)) + 1
		a := p.RequestBreakdown(op, off, size, h, s)
		b := wide.RequestBreakdown(op, off, size, h, int64(x8)*4096, s)
		return a == b
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// threeTier builds a HDD + mid-SSD + fast-NVMe parameter set.
func threeTier() Params {
	return Params{
		NetUnit: 1.0 / (117 << 20),
		Tiers: []TierParams{
			{Name: "hdd", Count: 6,
				Read:  DeviceFit{AlphaMin: 3e-4, AlphaMax: 7e-4, Beta: 1.0 / (20 << 20)},
				Write: DeviceFit{AlphaMin: 3e-4, AlphaMax: 7e-4, Beta: 1.0 / (19 << 20)}},
			{Name: "ssd", Count: 1,
				Read:  DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 1.0 / (200 << 20)},
				Write: DeviceFit{AlphaMin: 2e-4, AlphaMax: 4e-4, Beta: 1.0 / (180 << 20)}},
			{Name: "nvme", Count: 1,
				Read:  DeviceFit{AlphaMin: 5e-5, AlphaMax: 1e-4, Beta: 1.0 / (800 << 20)},
				Write: DeviceFit{AlphaMin: 5e-5, AlphaMax: 1e-4, Beta: 1.0 / (600 << 20)}},
		},
	}
}

func TestMultiThreeTierOrdering(t *testing.T) {
	p := threeTier()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	const size = 512 << 10
	// Shifting a fixed per-tier spread toward the fast tiers must not
	// increase the cost of a full-round request.
	slowHeavy := p.RequestCost(device.Read, 0, size, 64<<10, 64<<10, 64<<10)
	fastHeavy := p.RequestCost(device.Read, 0, size, 16<<10, 128<<10, 288<<10)
	if fastHeavy >= slowHeavy {
		t.Fatalf("fast-shifted layout (%v) should beat uniform (%v)", fastHeavy, slowHeavy)
	}
}

func TestMultiRequestCostZeroAndPanics(t *testing.T) {
	p := threeTier()
	if p.RequestCost(device.Read, 0, 0, 1, 1, 1) != 0 {
		t.Fatal("zero-size request should be free")
	}
	mustPanicMulti(t, func() { p.RequestCost(device.Read, 0, 10, 1, 1) })
	mustPanicMulti(t, func() { p.RequestCost(device.Read, 0, 10, 0, 0, 0) })
}

func TestCalibrateTiers(t *testing.T) {
	profiles := []device.Profile{device.DefaultHDD(), device.DefaultSSD()}
	nvme := device.DefaultSSD()
	nvme.Name = "nvme"
	nvme.ReadRate = 800 << 20
	nvme.WriteRate = 600 << 20
	nvme.ReadStartupMin, nvme.ReadStartupMax = 50*sim.Microsecond, 100*sim.Microsecond
	profiles = append(profiles, nvme)

	p, err := CalibrateTiers(profiles, []int{6, 1, 1}, netsim.GigabitEthernet(), 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiers) != 3 {
		t.Fatalf("tiers = %d", len(p.Tiers))
	}
	// The fitted betas must preserve the hardware speed ordering.
	if !(p.Tiers[0].Read.Beta > p.Tiers[1].Read.Beta && p.Tiers[1].Read.Beta > p.Tiers[2].Read.Beta) {
		t.Fatalf("beta ordering lost: %v / %v / %v",
			p.Tiers[0].Read.Beta, p.Tiers[1].Read.Beta, p.Tiers[2].Read.Beta)
	}
	if _, err := CalibrateTiers(nil, nil, netsim.GigabitEthernet(), 100, 1); err == nil {
		t.Fatal("empty profiles accepted")
	}
	if _, err := CalibrateTiers(profiles, []int{1}, netsim.GigabitEthernet(), 100, 1); err == nil {
		t.Fatal("mismatched counts accepted")
	}
}

func mustPanicMulti(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	fn()
}
