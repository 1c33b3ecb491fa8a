package layout

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// oracleMap is the first/last-array Map: two scratch arrays with one
// slot per server record the first and last local byte a Locate walk
// touches on each server, and a final scan emits the touched servers in
// index order. It is O(servers) per call and kept as the reference the
// production walk must equal.
func oracleMap(g Mapper, servers int, off, size int64) []SubRequest {
	if size == 0 {
		return nil
	}
	first := make([]int64, servers)
	last := make([]int64, servers)
	for i := range first {
		first[i] = -1
	}
	for pos, end := off, off+size; pos < end; {
		server, local := g.Locate(pos)
		stripe := g.StripeOf(server)
		frag := min(stripe-local%stripe, end-pos)
		if first[server] == -1 {
			first[server] = local
		}
		last[server] = local + frag
		pos += frag
	}
	var subs []SubRequest
	for i := 0; i < servers; i++ {
		if first[i] >= 0 {
			subs = append(subs, SubRequest{Server: i, Local: first[i], Size: last[i] - first[i]})
		}
	}
	return subs
}

// checkMap asserts every Map property on one call: byte conservation,
// ascending servers with one contiguous range each, agreement with an
// independent Locate fragment walk and with Fragments, and equality with
// the oracle.
func checkMap(t *testing.T, m Mapper, off, size int64) []SubRequest {
	t.Helper()
	subs := m.Map(off, size)
	want := oracleMap(m, m.Servers(), off, size)
	if !slices.Equal(subs, want) {
		t.Fatalf("%v Map(%d, %d) = %v, oracle %v", m, off, size, subs, want)
	}
	var total int64
	index := make(map[int]int, len(subs))
	for i, sub := range subs {
		if i > 0 && sub.Server <= subs[i-1].Server {
			t.Fatalf("%v Map(%d, %d): servers not ascending: %v", m, off, size, subs)
		}
		if sub.Size <= 0 || sub.Local < 0 {
			t.Fatalf("%v Map(%d, %d): bad sub-request %+v", m, off, size, sub)
		}
		index[sub.Server] = i
		total += sub.Size
	}
	if total != size {
		t.Fatalf("%v Map(%d, %d) maps %d bytes", m, off, size, total)
	}

	// Each server's fragments, in logical order, must tile its one range
	// from its first byte to its last.
	next := make(map[int]int64, len(subs))
	for pos, end := off, off+size; pos < end; {
		server, local := m.Locate(pos)
		stripe := m.StripeOf(server)
		n := min(stripe-local%stripe, end-pos)
		i, ok := index[server]
		if !ok {
			t.Fatalf("%v Map(%d, %d): byte %d lands on server %d, which has no sub-request", m, off, size, pos, server)
		}
		at, seen := next[server]
		if !seen {
			at = subs[i].Local
		}
		if local != at {
			t.Fatalf("%v Map(%d, %d): server %d fragment at local %d, want %d", m, off, size, server, local, at)
		}
		next[server] = local + n
		pos += n
	}
	for server, end := range next {
		if sub := subs[index[server]]; sub.Local+sub.Size != end {
			t.Fatalf("%v Map(%d, %d): server %d range %+v ends at %d by the walk", m, off, size, server, sub, end)
		}
	}

	// Fragments reports the same fragments against the right entries.
	pos := off
	Fragments(m, subs, off, size, func(i int, at, p, n int64) {
		server, local := m.Locate(p)
		if p != pos || server != subs[i].Server || local != subs[i].Local+at || at+n > subs[i].Size {
			t.Fatalf("%v Fragments(%d, %d): fragment (i=%d at=%d pos=%d n=%d) disagrees with Locate (%d, %d)",
				m, off, size, i, at, p, n, server, local)
		}
		pos += n
	})
	if pos != off+size {
		t.Fatalf("%v Fragments(%d, %d) stopped at %d", m, off, size, pos)
	}
	return subs
}

// fuzzRange bounds a fuzzed request so the oracle's walk stays short, at
// most 4096 fragments of the smallest stripe. A range no layout can map
// must make Map panic; ok is false for it.
func fuzzRange(t *testing.T, m Mapper, off, size, minStripe int64) (_, _ int64, ok bool) {
	t.Helper()
	if off < 0 || size < 0 || off > math.MaxInt64-size {
		mustPanic(t, func() { m.Map(off, size) })
		return 0, 0, false
	}
	if size/minStripe > 4096 {
		size %= 4096 * minStripe
	}
	return off, size, true
}

func FuzzStripingMap(f *testing.F) {
	f.Add(uint8(6), uint8(2), int64(64<<10), int64(64<<10), int64(0), int64(512<<10))
	f.Add(uint8(2), uint8(2), int64(7), int64(13), int64(5), int64(300))
	f.Add(uint8(6), uint8(2), int64(0), int64(64<<10), int64(100), int64(1<<20))
	f.Fuzz(func(t *testing.T, m, n uint8, h, s, off, size int64) {
		st := Striping{M: int(m), N: int(n), H: h, S: s}
		if st.Validate() != nil {
			return
		}
		if st.RoundSize() <= 0 {
			t.Fatalf("%v validated with round size %d", st, st.RoundSize())
		}
		off, size, ok := fuzzRange(t, st, off, size, minStripeOf(TieredOf(st)))
		if !ok {
			return
		}
		subs := checkMap(t, st, off, size)
		tt := TieredOf(st)
		if got := tt.Map(off, size); !slices.Equal(got, subs) {
			t.Fatalf("%v Map(%d, %d) = %v, but as Tiered %v", st, off, size, subs, got)
		}
		s1, l1 := st.Locate(off)
		if s2, l2 := tt.Locate(off); s1 != s2 || l1 != l2 {
			t.Fatalf("%v Locate(%d) = (%d, %d), but as Tiered (%d, %d)", st, off, s1, l1, s2, l2)
		}
		want := st.Distribute(off, size) // derived from Map
		if got := st.analytic(off, size); got != want {
			t.Fatalf("%v Distribute(%d, %d) = %+v, Map oracle %+v", st, off, size, got, want)
		}
		if got := tieredLoads(tt, off, size); got[0] != (Load{want.MTouched, want.MaxH}) || got[1] != (Load{want.NTouched, want.MaxS}) {
			t.Fatalf("%v Distribute(%d, %d) as Tiered = %v, Map oracle %+v", st, off, size, got, want)
		}
	})
}

func FuzzTieredMap(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(1), int64(10), int64(20), int64(40), int64(0), int64(200))
	f.Add(uint8(2), uint8(1), uint8(1), int64(0), int64(20), int64(40), int64(7), int64(93))
	f.Add(uint8(6), uint8(1), uint8(1), int64(16<<10), int64(64<<10), int64(256<<10), int64(1<<20), int64(1<<20))
	f.Fuzz(func(t *testing.T, c0, c1, c2 uint8, s0, s1, s2, off, size int64) {
		tt := Tiered{Counts: []int{int(c0), int(c1), int(c2)}, Stripes: []int64{s0, s1, s2}}
		if tt.Validate() != nil {
			return
		}
		if tt.RoundSize() <= 0 {
			t.Fatalf("%v validated with round size %d", tt, tt.RoundSize())
		}
		off, size, ok := fuzzRange(t, tt, off, size, minStripeOf(tt))
		if !ok {
			return
		}
		subs := checkMap(t, tt, off, size)
		if got, want := tieredLoads(tt, off, size), mapLoads(tt, subs); !slices.Equal(got, want) {
			t.Fatalf("%v Distribute(%d, %d) = %v, Map oracle %v", tt, off, size, got, want)
		}
	})
}

// mapLoads is the Map-derived oracle for Geometry.Distribute: each
// tier's touched servers and largest sub-request, read off subs.
func mapLoads(tt Tiered, subs []SubRequest) []Load {
	loads := make([]Load, len(tt.Counts))
	tier, base := 0, 0
	for _, sub := range subs {
		for sub.Server >= base+tt.Counts[tier] {
			base += tt.Counts[tier]
			tier++
		}
		loads[tier].Touched++
		loads[tier].Max = max(loads[tier].Max, sub.Size)
	}
	return loads
}

// minStripeOf returns the smallest stripe size that stores data.
func minStripeOf(t Tiered) int64 {
	ms := int64(math.MaxInt64)
	for i, c := range t.Counts {
		if c > 0 && t.Stripes[i] > 0 {
			ms = min(ms, t.Stripes[i])
		}
	}
	return ms
}

func TestMapMatchesOracleAcrossPhases(t *testing.T) {
	for _, m := range []Mapper{
		Striping{M: 6, N: 2, H: 64 << 10, S: 64 << 10},
		Striping{M: 2, N: 2, H: 7, S: 13},
		Striping{M: 6, N: 2, H: 0, S: 64 << 10},
		Striping{M: 768, N: 256, H: 64 << 10, S: 64 << 10},
		Tiered{Counts: []int{2, 1, 1}, Stripes: []int64{10, 0, 40}},
	} {
		for _, off := range []int64{0, 1, 6, 13, 64 << 10, 448<<10 + 3, 1 << 30} {
			for _, size := range []int64{1, 7, 20, 64 << 10, 256 << 10, 3 << 20} {
				checkMap(t, m, off, size)
			}
		}
	}
}

// TestValidateRejectsRoundOverflow pins the overflow finding: a round
// size M*H + N*S beyond int64 used to wrap, so with H = 2^61 Map
// panicked on a negative round and with H = MaxInt64 it split a 1 MB
// request at offset 0 across two servers. Validate now refuses both.
func TestValidateRejectsRoundOverflow(t *testing.T) {
	for _, st := range []Striping{
		{M: 6, N: 2, H: 1 << 61, S: 64 << 10},
		{M: 6, N: 2, H: math.MaxInt64, S: 64 << 10},
		{M: 1, N: 1, H: math.MaxInt64, S: 1},
	} {
		err := st.Validate()
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%v: Validate = %v, want an overflow error", st, err)
		}
		if err := TieredOf(st).Validate(); err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%v as Tiered: Validate = %v, want an overflow error", st, err)
		}
	}
	// The largest round that fits is still accepted.
	edge := Striping{M: 1, N: 1, H: math.MaxInt64 - 1, S: 1}
	if err := edge.Validate(); err != nil {
		t.Errorf("%v: Validate = %v, want ok", edge, err)
	}
	if subs := edge.Map(0, 1<<20); len(subs) != 1 || subs[0] != (SubRequest{Server: 0, Local: 0, Size: 1 << 20}) {
		t.Errorf("%v Map(0, 1 MB) = %v, want one sub-request on server 0", edge, subs)
	}
}

func TestMapRejectsOverflowingRange(t *testing.T) {
	mustPanic(t, func() { Fixed(6, 2, 64<<10).Map(math.MaxInt64-10, 11) })
	mustPanic(t, func() { TieredOf(Fixed(6, 2, 64<<10)).Map(1, math.MaxInt64) })
}

// TestMapAllocatesOnlyTheResult pins the scratch-free walk: one
// allocation per call (the result), on 8 servers and on 1024.
func TestMapAllocatesOnlyTheResult(t *testing.T) {
	for _, st := range []Striping{
		{M: 6, N: 2, H: 64 << 10, S: 64 << 10},
		{M: 768, N: 256, H: 64 << 10, S: 64 << 10},
	} {
		for _, m := range []Mapper{st, TieredOf(st)} {
			var off int64
			allocs := testing.AllocsPerRun(100, func() {
				off += 4096
				mapSink = m.Map(off, 256<<10)
			})
			if allocs > 1 {
				t.Errorf("%v Map: %.1f allocs per call, want <= 1", m, allocs)
			}
		}
	}
}

var mapSink []SubRequest

func BenchmarkStripingMap(b *testing.B) {
	for _, c := range []struct {
		st   Striping
		size int64
	}{
		{Striping{M: 6, N: 2, H: 64 << 10, S: 64 << 10}, 512 << 10},
		{Striping{M: 768, N: 256, H: 64 << 10, S: 64 << 10}, 256 << 10},
	} {
		round := c.st.RoundSize()
		b.Run(fmt.Sprintf("servers=%d", c.st.Servers()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mapSink = c.st.Map(int64(i)*4096%round, c.size)
			}
		})
	}
}

// TestStripingViewAllocatesNothing pins the two-tier view: Striping's
// delegations build their Tiered on the stack.
func TestStripingViewAllocatesNothing(t *testing.T) {
	st := Striping{M: 6, N: 2, H: 16 << 10, S: 128 << 10}
	var off int64
	allocs := testing.AllocsPerRun(100, func() {
		off += 4096
		_, local := st.Locate(off)
		if st.Validate() != nil || st.StripeOf(7)+st.RoundSize()+local < 0 {
			t.Fatal("unreachable")
		}
	})
	if allocs != 0 {
		t.Errorf("%v Validate/Locate/StripeOf/RoundSize: %.1f allocs per call, want 0", st, allocs)
	}
}
