package cluster

import (
	"reflect"
	"testing"

	"harl/internal/device"
	"harl/internal/netsim"
)

func TestDefaultIsPaperSetup(t *testing.T) {
	tb := MustNew(Default())
	h, s := tb.FS.CountRoles()
	if h != 6 || s != 2 {
		t.Fatalf("roles = %d:%d, want 6:2", h, s)
	}
	// HServers first, SServers after — the striping convention.
	if tb.FS.Servers()[0].Role() != device.HDD || tb.FS.Servers()[6].Role() != device.SSD {
		t.Fatal("server ordering broken")
	}
}

func TestWithRatio(t *testing.T) {
	for _, ratio := range [][2]int{{7, 1}, {2, 6}, {8, 0}, {0, 8}} {
		tb := MustNew(WithRatio(ratio[0], ratio[1]))
		h, s := tb.FS.CountRoles()
		if h != ratio[0] || s != ratio[1] {
			t.Fatalf("ratio %v built %d:%d", ratio, h, s)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.HServers, c.SServers = 0, 0 },
		func(c *Config) { c.HServers = -1 },
		func(c *Config) { c.Network = netsim.Config{} },
		func(c *Config) { c.HProfile.ReadRate = -1 },
		func(c *Config) { c.SProfile.Capacity = 0 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("case %d accepted", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d built", i)
		}
	}
	// A ratio with zero HServers must not require a valid HProfile.
	cfg := WithRatio(0, 8)
	cfg.HProfile = device.Profile{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("unused HProfile should be ignored: %v", err)
	}
}

func TestCalibrate(t *testing.T) {
	tb := MustNew(Default())
	p, err := tb.Calibrate(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tiers) != 2 || p.Tiers[0].Count != 6 || p.Tiers[1].Count != 2 {
		t.Fatalf("params = %+v", p)
	}
	if p.Tiers[0].Read.AlphaMax <= p.Tiers[1].Read.AlphaMax {
		t.Fatal("calibration lost the HServer/SServer gap")
	}
	// Default probe count path.
	if _, err := tb.Calibrate(0); err != nil {
		t.Fatal(err)
	}
}

func TestNewCustom(t *testing.T) {
	profiles := []device.Profile{
		device.DefaultHDD(), device.DefaultHDD(),
		device.DefaultSATASSD(), device.DefaultSSD(),
	}
	tb, err := NewCustom(profiles, netsim.GigabitEthernet(), 3)
	if err != nil {
		t.Fatal(err)
	}
	h, s := tb.FS.CountRoles()
	if h != 2 || s != 2 {
		t.Fatalf("roles = %d:%d", h, s)
	}
	// Per-server profiles are preserved in order.
	if tb.FS.Servers()[2].Dev.Profile().Name != "ssd-sata-60g" {
		t.Fatalf("server 2 profile = %q", tb.FS.Servers()[2].Dev.Profile().Name)
	}
	if _, err := NewCustom(nil, netsim.GigabitEthernet(), 1); err == nil {
		t.Fatal("empty profile list accepted")
	}
	if _, err := NewCustom(profiles, netsim.Config{}, 1); err == nil {
		t.Fatal("bad network accepted")
	}
	bad := device.DefaultHDD()
	bad.Capacity = 0
	if _, err := NewCustom([]device.Profile{bad}, netsim.GigabitEthernet(), 1); err == nil {
		t.Fatal("bad profile accepted")
	}
}

func TestMustNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestDeterministicBuild(t *testing.T) {
	a := MustNew(Default())
	b := MustNew(Default())
	pa, err := a.Calibrate(100)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Calibrate(100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, pb) {
		t.Fatal("identical configs calibrated differently")
	}
}
