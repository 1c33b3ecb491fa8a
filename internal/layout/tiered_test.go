package layout

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestTieredValidate(t *testing.T) {
	good := Tiered{Counts: []int{6, 1, 1}, Stripes: []int64{16 << 10, 64 << 10, 256 << 10}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	bad := []Tiered{
		{},
		{Counts: []int{1}, Stripes: []int64{1, 2}},
		{Counts: []int{-1, 2}, Stripes: []int64{1, 2}},
		{Counts: []int{1, 2}, Stripes: []int64{1, -2}},
		{Counts: []int{0, 0}, Stripes: []int64{1, 2}},
		{Counts: []int{2, 2}, Stripes: []int64{0, 0}},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Errorf("bad config %d accepted: %v", i, cfg)
		}
	}
}

func TestTieredOfMatchesStriping(t *testing.T) {
	st := Striping{M: 6, N: 2, H: 16 << 10, S: 128 << 10}
	tt := TieredOf(st)
	if tt.Validate() != nil || tt.Servers() != 8 || tt.RoundSize() != st.RoundSize() {
		t.Fatalf("conversion broken: %+v", tt)
	}
	// Locate agrees everywhere.
	for _, off := range []int64{0, 1, 16<<10 - 1, 16 << 10, 96 << 10, 96<<10 + 1, 300 << 10, 352 << 10, 1 << 20} {
		s1, l1 := st.Locate(off)
		s2, l2 := tt.Locate(off)
		if s1 != s2 || l1 != l2 {
			t.Fatalf("Locate(%d): striping (%d,%d) vs tiered (%d,%d)", off, s1, l1, s2, l2)
		}
	}
}

// Property: the two-tier special case of Tiered agrees with Striping on
// Map, and its cover loop with the Striping fragment walk, for arbitrary
// configurations.
func TestTieredTwoTierEquivalenceProperty(t *testing.T) {
	prop := func(m8, n8 uint8, h16, s16 uint16, off32, size32 uint32) bool {
		st := Striping{
			M: int(m8%6) + 1,
			N: int(n8 % 4),
			H: int64(h16%32) * 4096,
			S: int64(s16%32) * 4096,
		}
		if st.Validate() != nil {
			return true
		}
		tt := TieredOf(st)
		off := int64(off32 % (4 << 20))
		size := int64(size32 % (2 << 20))

		subs1 := st.Map(off, size)
		subs2 := tt.Map(off, size)
		if len(subs1) != len(subs2) {
			return false
		}
		for i := range subs1 {
			if subs1[i] != subs2[i] {
				return false
			}
		}
		d1 := st.Distribute(off, size)
		d2 := tieredLoads(tt, off, size)
		return d2[0] == Load{d1.MTouched, d1.MaxH} && d2[1] == Load{d1.NTouched, d1.MaxS}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredThreeTierByHand(t *testing.T) {
	// 2 + 1 + 1 servers with stripes 10/20/40: round = 2*10+20+40 = 80.
	tt := Tiered{Counts: []int{2, 1, 1}, Stripes: []int64{10, 20, 40}}
	checks := []struct {
		off    int64
		server int
		local  int64
	}{
		{0, 0, 0}, {10, 1, 0}, {20, 2, 0}, {39, 2, 19}, {40, 3, 0}, {79, 3, 39},
		{80, 0, 10}, {100, 2, 20}, {120, 3, 40},
	}
	for _, c := range checks {
		srv, local := tt.Locate(c.off)
		if srv != c.server || local != c.local {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", c.off, srv, local, c.server, c.local)
		}
	}
	// A full round from 0 touches every server with its full stripe.
	if d := tieredLoads(tt, 0, 80); !slices.Equal(d, []Load{{2, 10}, {1, 20}, {1, 40}}) {
		t.Fatalf("loads = %v", d)
	}
}

func TestTieredSkipsZeroStripeTiers(t *testing.T) {
	tt := Tiered{Counts: []int{2, 1, 1}, Stripes: []int64{0, 20, 40}}
	for _, sub := range tt.Map(0, 200) {
		if sub.Server < 2 {
			t.Fatalf("data landed on zero-stripe tier: %+v", sub)
		}
	}
	if d := tieredLoads(tt, 0, 200); d[0] != (Load{}) {
		t.Fatalf("zero-stripe tier touched: %+v", d)
	}
}

// Property: Map conserves bytes over three-tier configurations and the
// byte-level oracle agrees on server placement.
func TestTieredMapConservationProperty(t *testing.T) {
	prop := func(seed int64, off32, size32 uint32) bool {
		tt := Tiered{
			Counts:  []int{1 + int(seed&3), 1, 1 + int((seed>>2)&1)},
			Stripes: []int64{4096 * (1 + seed&7), 8192, 4096 * (1 + (seed>>3)&7)},
		}
		if tt.Validate() != nil {
			return true
		}
		off := int64(off32 % (1 << 20))
		size := int64(size32%(1<<20)) + 1
		var total int64
		seen := make(map[int]bool)
		for _, sub := range tt.Map(off, size) {
			if seen[sub.Server] || sub.Size <= 0 {
				return false
			}
			seen[sub.Server] = true
			total += sub.Size
		}
		return total == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTieredPanics(t *testing.T) {
	tt := Tiered{Counts: []int{2, 2}, Stripes: []int64{10, 20}}
	mustPanic(t, func() { tt.Locate(-1) })
	mustPanic(t, func() { tt.Map(-1, 5) })
	mustPanic(t, func() { tieredLoads(tt, 0, -1) })
	mustPanic(t, func() { tt.StripeOf(4) })
	mustPanic(t, func() { tt.StripeOf(-1) })
	mustPanic(t, func() { (Tiered{Counts: []int{1}, Stripes: []int64{0}}).Map(0, 5) })
}

func TestTieredString(t *testing.T) {
	tt := Tiered{Counts: []int{6, 1, 1}, Stripes: []int64{16 << 10, 64 << 10, 256 << 10}}
	if got := tt.String(); got != "[6x16K 1x64K 1x256K]" {
		t.Fatalf("String = %q", got)
	}
}

// tieredLoads runs the cover loop on a k-tier layout, panicking if it
// does not validate.
func tieredLoads(tt Tiered, off, size int64) []Load {
	g, err := NewGeometry(tt)
	if err != nil {
		panic(err)
	}
	loads := make([]Load, len(tt.Counts))
	g.Distribute(off, size, loads)
	return loads
}
