package layout

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// naiveLocate is the byte-at-a-time oracle: walk the round-robin pattern
// from offset 0 counting stripe fragments.
func naiveLocate(st Striping, off int64) (server int, local int64) {
	consumed := make([]int64, st.Servers()) // bytes already stored per server
	var pos int64
	for {
		for srv := 0; srv < st.Servers(); srv++ {
			stripe := st.StripeOf(srv)
			if stripe == 0 {
				continue
			}
			if off < pos+stripe {
				return srv, consumed[srv] + (off - pos)
			}
			pos += stripe
			consumed[srv] += stripe
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		st Striping
		ok bool
	}{
		{Striping{M: 6, N: 2, H: 64 << 10, S: 64 << 10}, true},
		{Striping{M: 6, N: 2, H: 0, S: 64 << 10}, true},
		{Striping{M: 6, N: 2, H: 64 << 10, S: 0}, true},
		{Striping{M: 0, N: 2, H: 0, S: 64 << 10}, true},
		{Striping{M: 8, N: 0, H: 64 << 10, S: 0}, true},
		{Striping{M: 6, N: 2, H: 0, S: 0}, false},
		{Striping{M: 0, N: 0, H: 1, S: 1}, false},
		{Striping{M: -1, N: 2, H: 1, S: 1}, false},
		{Striping{M: 6, N: 2, H: -4, S: 1}, false},
		{Striping{M: 0, N: 2, H: 1024, S: 0}, false}, // all data assigned to absent servers
	}
	for i, c := range cases {
		err := c.st.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d (%v): Validate = %v, want ok=%v", i, c.st, err, c.ok)
		}
	}
}

func TestFixedIsSymmetric(t *testing.T) {
	st := Fixed(6, 2, 64<<10)
	if st.H != st.S || st.H != 64<<10 {
		t.Fatalf("Fixed = %+v", st)
	}
	if st.RoundSize() != 8*64<<10 {
		t.Fatalf("round = %d", st.RoundSize())
	}
}

func TestLocateAgainstOracle(t *testing.T) {
	configs := []Striping{
		{M: 6, N: 2, H: 64 << 10, S: 64 << 10},
		{M: 6, N: 2, H: 16 << 10, S: 128 << 10},
		{M: 2, N: 6, H: 4 << 10, S: 32 << 10},
		{M: 6, N: 2, H: 0, S: 64 << 10},
		{M: 6, N: 2, H: 32 << 10, S: 0},
		{M: 1, N: 1, H: 4096, S: 12288},
	}
	rng := rand.New(rand.NewSource(1))
	for _, st := range configs {
		for trial := 0; trial < 60; trial++ {
			off := rng.Int63n(4 * st.RoundSize())
			srv, local := st.Locate(off)
			wantSrv, wantLocal := naiveLocate(st, off)
			if srv != wantSrv || local != wantLocal {
				t.Fatalf("%v Locate(%d) = (%d,%d), oracle (%d,%d)", st, off, srv, local, wantSrv, wantLocal)
			}
		}
	}
}

func TestLocateFirstRoundByHand(t *testing.T) {
	st := Striping{M: 2, N: 1, H: 10, S: 30} // round = 50
	checks := []struct {
		off    int64
		server int
		local  int64
	}{
		{0, 0, 0}, {9, 0, 9}, {10, 1, 0}, {19, 1, 9},
		{20, 2, 0}, {49, 2, 29},
		{50, 0, 10}, {60, 1, 10}, {70, 2, 30}, {99, 2, 59},
	}
	for _, c := range checks {
		srv, local := st.Locate(c.off)
		if srv != c.server || local != c.local {
			t.Errorf("Locate(%d) = (%d,%d), want (%d,%d)", c.off, srv, local, c.server, c.local)
		}
	}
}

func TestMapCoversRequestExactly(t *testing.T) {
	st := Striping{M: 6, N: 2, H: 16 << 10, S: 128 << 10}
	subs := st.Map(100, 512<<10)
	var total int64
	for _, s := range subs {
		total += s.Size
		if s.Size <= 0 {
			t.Fatalf("empty sub-request %+v", s)
		}
	}
	if total != 512<<10 {
		t.Fatalf("mapped %d bytes, want %d", total, 512<<10)
	}
}

func TestMapZeroAndErrors(t *testing.T) {
	st := Fixed(6, 2, 64<<10)
	if subs := st.Map(0, 0); subs != nil {
		t.Fatalf("zero-size map = %v", subs)
	}
	mustPanic(t, func() { st.Map(-1, 10) })
	mustPanic(t, func() { st.Map(0, -1) })
	mustPanic(t, func() { st.Locate(-1) })
	mustPanic(t, func() { (Striping{M: 1, N: 1}).Map(0, 10) })
	mustPanic(t, func() { st.StripeOf(99) })
}

func TestMapSingleStripeWithinOneServer(t *testing.T) {
	st := Fixed(6, 2, 64<<10)
	subs := st.Map(10, 100) // inside server 0's first stripe
	if len(subs) != 1 || subs[0].Server != 0 || subs[0].Local != 10 || subs[0].Size != 100 {
		t.Fatalf("subs = %+v", subs)
	}
}

func TestMapSkipsHServersWhenHZero(t *testing.T) {
	st := Striping{M: 6, N: 2, H: 0, S: 64 << 10}
	subs := st.Map(0, 1<<20)
	for _, s := range subs {
		if s.Server < st.M {
			t.Fatalf("data landed on HServer: %+v", s)
		}
	}
	if len(subs) != 2 {
		t.Fatalf("expected both SServers, got %+v", subs)
	}
}

func TestMapLocalContiguityMatchesByteOracle(t *testing.T) {
	// Byte-level oracle: mark every (server, local) byte, then check Map
	// yields exactly those bytes.
	st := Striping{M: 2, N: 2, H: 7, S: 13} // awkward sizes on purpose
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		off := rng.Int63n(200)
		size := rng.Int63n(300) + 1
		want := make(map[int]map[int64]bool)
		for b := off; b < off+size; b++ {
			srv, local := st.Locate(b)
			if want[srv] == nil {
				want[srv] = make(map[int64]bool)
			}
			want[srv][local] = true
		}
		for _, sub := range st.Map(off, size) {
			for i := int64(0); i < sub.Size; i++ {
				if !want[sub.Server][sub.Local+i] {
					t.Fatalf("Map claims byte (%d,%d) not in oracle (off=%d size=%d)", sub.Server, sub.Local+i, off, size)
				}
				delete(want[sub.Server], sub.Local+i)
			}
		}
		for srv, bytes := range want {
			if len(bytes) > 0 {
				t.Fatalf("Map missed %d bytes on server %d (off=%d size=%d)", len(bytes), srv, off, size)
			}
		}
	}
}

func TestDistributeByHand(t *testing.T) {
	// M=2,N=1,H=10,S=30: round 50. Request [5,45): touches server0 [5,10),
	// server1 [10,20), server2 [20,45) -> sizes 5,10,25.
	st := Striping{M: 2, N: 1, H: 10, S: 30}
	d := st.Distribute(5, 40)
	if d.MTouched != 2 || d.NTouched != 1 {
		t.Fatalf("touched = %d/%d, want 2/1", d.MTouched, d.NTouched)
	}
	if d.MaxH != 10 || d.MaxS != 25 {
		t.Fatalf("max = %d/%d, want 10/25", d.MaxH, d.MaxS)
	}
}

func TestDistributeWholeRounds(t *testing.T) {
	st := Striping{M: 6, N: 2, H: 16 << 10, S: 64 << 10}
	// Exactly 3 rounds starting at 0: every server gets 3 full stripes.
	d := st.Distribute(0, 3*st.RoundSize())
	if d.MTouched != 6 || d.NTouched != 2 {
		t.Fatalf("touched = %+v", d)
	}
	if d.MaxH != 3*16<<10 || d.MaxS != 3*64<<10 {
		t.Fatalf("max = %d/%d", d.MaxH, d.MaxS)
	}
}

// Property: Map conserves bytes and produces at most one sub-request per
// server for any valid configuration and range.
func TestMapConservationProperty(t *testing.T) {
	prop := func(m8, n8 uint8, h32, s32 uint32, off32, size32 uint32) bool {
		m := int(m8%7) + 1
		n := int(n8 % 7)
		h := int64(h32%64) * 1024
		s := int64(s32%64) * 1024
		st := Striping{M: m, N: n, H: h, S: s}
		if st.Validate() != nil {
			return true // skip invalid configs
		}
		off := int64(off32 % (8 << 20))
		size := int64(size32%(8<<20)) + 1
		seen := make(map[int]bool)
		var total int64
		for _, sub := range st.Map(off, size) {
			if seen[sub.Server] {
				return false // more than one sub-request per server
			}
			seen[sub.Server] = true
			if sub.Size <= 0 || sub.Local < 0 {
				return false
			}
			total += sub.Size
		}
		return total == size
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Locate is consistent with Map — the first byte of the range
// lands exactly where Locate says.
func TestLocateMapConsistencyProperty(t *testing.T) {
	prop := func(off32, size32 uint32) bool {
		st := Striping{M: 6, N: 2, H: 16 << 10, S: 128 << 10}
		off := int64(off32 % (16 << 20))
		size := int64(size32%(2<<20)) + 1
		srv, local := st.Locate(off)
		for _, sub := range st.Map(off, size) {
			if sub.Server == srv {
				return sub.Local == local
			}
		}
		return false
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestStringFormats(t *testing.T) {
	st := Striping{M: 6, N: 2, H: 36 << 10, S: 148 << 10}
	if got := st.String(); got != "36K-148K x(6H+2S)" {
		t.Fatalf("String = %q", got)
	}
	odd := Striping{M: 1, N: 1, H: 1000, S: 1024}
	if got := odd.String(); got != "1000B-1K x(1H+1S)" {
		t.Fatalf("String = %q", got)
	}
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	fn()
}
