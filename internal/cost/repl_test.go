package cost

import (
	"testing"

	"harl/internal/device"
)

func replTestParams() Params {
	h := DeviceFit{AlphaMin: 1e-4, AlphaMax: 3e-4, Beta: 2e-9}
	return Params{
		NetUnit: 1e-9,
		Tiers: []TierParams{
			{Count: 4, Read: h, Write: h},
			{Count: 4,
				Read:  DeviceFit{AlphaMin: 2e-5, AlphaMax: 8e-5, Beta: 1e-9},
				Write: DeviceFit{AlphaMin: 5e-5, AlphaMax: 2e-4, Beta: 4e-9}},
		},
	}
}

// R=0 and R=1 must both be bit-identical to the unreplicated model: the
// planner's (h, s) search with no replication axis may not move.
func TestReplCostR0R1Identical(t *testing.T) {
	base := replTestParams()
	r1 := base
	r1.R = 1
	for _, c := range []struct{ off, size, h, s int64 }{
		{0, 1 << 20, 64 << 10, 64 << 10},
		{12345, 3 << 20, 128 << 10, 32 << 10},
		{1 << 30, 4 << 10, 0, 64 << 10},
	} {
		for _, op := range []device.Op{device.Read, device.Write} {
			b0 := base.RequestBreakdown(op, c.off, c.size, c.h, c.s)
			b1 := r1.RequestBreakdown(op, c.off, c.size, c.h, c.s)
			if b0 != b1 {
				t.Fatalf("op=%v case=%+v: R=0 %+v != R=1 %+v", op, c, b0, b1)
			}
		}
	}
}

func TestReplCostWriteDearerReadUnchanged(t *testing.T) {
	base := replTestParams()
	r2 := base
	r2.R = 2
	off, size, h, s := int64(0), int64(1<<20), int64(64<<10), int64(64<<10)

	w0 := base.RequestBreakdown(device.Write, off, size, h, s)
	w2 := r2.RequestBreakdown(device.Write, off, size, h, s)
	if w2.Total() <= w0.Total() {
		t.Fatalf("r=2 write %.3e not dearer than r=1 %.3e", w2.Total(), w0.Total())
	}
	if w2.Network <= w0.Network || w2.Startup < w0.Startup {
		t.Fatalf("r=2 write terms %+v vs %+v", w2, w0)
	}
	if w2.Transfer != w0.Transfer {
		t.Fatalf("replication changed the storage-transfer term: %v vs %v", w2.Transfer, w0.Transfer)
	}

	r0 := base.RequestBreakdown(device.Read, off, size, h, s)
	rr := r2.RequestBreakdown(device.Read, off, size, h, s)
	if r0 != rr {
		t.Fatalf("reads pay for replication: %+v vs %+v", r0, rr)
	}

	r3 := base
	r3.R = 3
	w3 := r3.RequestBreakdown(device.Write, off, size, h, s)
	if w3.Total() <= w2.Total() {
		t.Fatalf("r=3 write %.3e not dearer than r=2 %.3e", w3.Total(), w2.Total())
	}
}

func TestReplCostValidate(t *testing.T) {
	p := replTestParams()
	p.R = -1
	if p.Validate() == nil {
		t.Fatal("negative R validated")
	}
	p.R = p.Servers() + 1
	if p.Validate() == nil {
		t.Fatal("R beyond cluster size validated")
	}
	p.R = p.Servers()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReplRebuildCost(t *testing.T) {
	p := replTestParams()
	if p.RebuildCost(0) != 0 || p.RebuildCost(-5) != 0 {
		t.Fatal("empty rebuild has nonzero cost")
	}
	one := p.RebuildCost(1 << 20)
	if one <= 0 {
		t.Fatal("rebuild cost not positive")
	}
	if two := p.RebuildCost(2 << 20); two != 2*one {
		t.Fatalf("rebuild cost not linear: %v vs 2*%v", two, one)
	}
}
