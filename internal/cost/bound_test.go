package cost

import (
	"math"
	"slices"
	"testing"

	"harl/internal/device"
)

// checkBound fails t unless e's Bound for (op, size) is at most the cost
// of the request at every offset of one striping round (costs are
// periodic in the round). When the size is a whole number of rounds,
// every server carries exactly q stripes wherever the request starts, so
// the bound must then equal the cost.
func checkBound(t testing.TB, e *Evaluator, op device.Op, size int64) {
	round := e.geo.Round()
	b := e.Bound(op, size)
	for off := int64(0); off < round; off++ {
		c := e.RequestCost(op, off, size)
		if b > c || size%round == 0 && b != c {
			t.Fatalf("counts %v stripes %v op %v size %d off %d: bound %v, cost %v",
				e.p.Counts(), e.Stripes(), op, size, off, b, c)
		}
	}
}

// boundGrid checks Bound on every offset of every candidate of p whose
// stripes all lie in [0, maxStripe], for every size up to rounds rounds
// and two bytes and both operations. It returns the checks made.
func boundGrid(t *testing.T, p Params, maxStripe, rounds int64) int {
	checks := 0
	stripes := make([]int64, len(p.Tiers))
	var walk func(tier int)
	walk = func(tier int) {
		if tier < len(stripes) {
			for x := int64(0); x <= maxStripe; x++ {
				stripes[tier] = x
				walk(tier + 1)
			}
			return
		}
		e, err := p.NewEvaluator(stripes...)
		if err != nil {
			return // stores no data
		}
		round := e.geo.Round()
		for size := int64(1); size <= rounds*round+2; size++ {
			for _, op := range []device.Op{device.Read, device.Write} {
				checkBound(t, e, op, size)
				checks += int(round)
			}
		}
	}
	walk(0)
	return checks
}

// TestBoundExhaustive checks Bound against every offset on every small
// geometry:
//   - two tiers: up to three servers per tier (none included), stripes
//     0..5, every size up to three rounds and two bytes;
//   - three tiers: up to two servers per tier, stripes 0..4, every size
//     up to two rounds and two bytes.
func TestBoundExhaustive(t *testing.T) {
	checks := 0
	for _, c := range []struct {
		base              Params
		maxCount          int
		maxStripe, rounds int64
	}{
		{evalParams(), 3, 5, 3},
		{threeTier(), 2, 4, 2},
	} {
		counts := make([]int, len(c.base.Tiers))
		var walk func(tier int)
		walk = func(tier int) {
			if tier < len(counts) {
				for n := 0; n <= c.maxCount; n++ {
					counts[tier] = n
					walk(tier + 1)
				}
				return
			}
			p := c.base
			p.Tiers = slices.Clone(p.Tiers)
			for i, n := range counts {
				p.Tiers[i].Count = n
			}
			if p.Validate() == nil {
				checks += boundGrid(t, p, c.maxStripe, c.rounds)
			}
		}
		walk(0)
	}
	t.Logf("%d bound checks", checks)
}

// TestBoundRealistic checks Bound on the planner's own scale: the
// calibrated-looking 6H+2S parameters, KB-to-MB stripes and requests.
// An empty request costs nothing, so its bound is 0.
func TestBoundRealistic(t *testing.T) {
	p := evalParams()
	for _, pair := range [][2]int64{{0, 64 << 10}, {64 << 10, 0}, {4 << 10, 8 << 10}, {36 << 10, 148 << 10}, {100 << 10, 132 << 10}} {
		e, err := p.NewEvaluator(pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if b := e.Bound(device.Read, 0); b != 0 {
			t.Fatalf("pair %v: Bound(0) = %v", pair, b)
		}
		round := e.geo.Round()
		for _, size := range []int64{4 << 10, 64 << 10, 256 << 10, 512 << 10, 2 << 20, round, 2*round + 4096} {
			for _, op := range []device.Op{device.Read, device.Write} {
				b := e.Bound(op, size)
				for off := int64(0); off < round; off += 1 << 10 {
					if c := e.RequestCost(op, off, size); b > c {
						t.Fatalf("pair %v op %v size %d off %d: bound %v > cost %v", pair, op, size, off, b, c)
					}
				}
			}
		}
	}
}

// TestBoundAllocations pins Bound at zero allocations: the grid search
// calls it once per request shape per candidate.
func TestBoundAllocations(t *testing.T) {
	e, err := evalParams().NewEvaluator(16<<10, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(512 << 10)
	if allocs := testing.AllocsPerRun(100, func() {
		size += 4096
		costSink = e.Bound(device.Write, size)
	}); allocs != 0 {
		t.Fatalf("Bound: %.1f allocs per call, want 0", allocs)
	}
}

// FuzzEvaluatorBound checks Bound against RequestCost on random
// geometries of one to four tiers, offsets, sizes and operations. Tier i has counts[i] servers of stripe
// stripes[i], and k = max(1, k%5) tiers take part.
func FuzzEvaluatorBound(f *testing.F) {
	f.Add(uint16(6), uint16(2), uint64(36<<10), uint64(148<<10), uint64(12345), uint64(512<<10), false, uint8(2), uint16(0), uint16(0), uint64(0), uint64(0))
	f.Add(uint16(3), uint16(1), uint64(7), uint64(0), uint64(5), uint64(40), true, uint8(2), uint16(0), uint16(0), uint64(0), uint64(0))
	f.Add(uint16(0), uint16(4), uint64(0), uint64(4096), uint64(1<<33), uint64(2<<20), true, uint8(2), uint16(0), uint16(0), uint64(0), uint64(0))
	f.Add(uint16(5), uint16(5), uint64(100), uint64(300), uint64(999), uint64(2000), false, uint8(2), uint16(0), uint16(0), uint64(0), uint64(0))
	// 1000 HServers with 1 TB stripes: x·b passes 64 bits.
	f.Add(uint16(1000), uint16(24), uint64(1<<40), uint64(0), uint64(3), uint64(1<<39), true, uint8(2), uint16(0), uint16(0), uint64(0), uint64(0))
	f.Add(uint16(6), uint16(1), uint64(16<<10), uint64(36<<10), uint64(777), uint64(512<<10), false, uint8(3), uint16(1), uint16(0), uint64(40<<10), uint64(0))
	f.Add(uint16(2), uint16(0), uint64(5), uint64(9), uint64(31), uint64(100), true, uint8(4), uint16(3), uint16(1), uint64(0), uint64(7))
	f.Add(uint16(4), uint16(9), uint64(4096), uint64(1), uint64(0), uint64(9000), true, uint8(1), uint16(5), uint16(5), uint64(2), uint64(3))
	f.Fuzz(func(t *testing.T, m, n uint16, h, s, off, size uint64, write bool, k uint8, c2, c3 uint16, x2, x3 uint64) {
		counts := []uint16{m, n, c2, c3}[:max(1, k%5)]
		stripes := []uint64{h, s, x2, x3}[:len(counts)]
		base := threeTier().Tiers
		p := Params{NetUnit: threeTier().NetUnit}
		xs := make([]int64, len(counts))
		for i, c := range counts {
			tier := base[i%len(base)]
			tier.Count = int(c % 1025)
			p.Tiers = append(p.Tiers, tier)
			xs[i] = int64(stripes[i] % (1 << 41))
		}
		if p.Validate() != nil {
			return
		}
		e, err := p.NewEvaluator(xs...)
		if err != nil {
			return // stores no data
		}
		op := device.Read
		if write {
			op = device.Write
		}
		sz, o := int64(size%(1<<42))+1, int64(off%(1<<42))
		b, c := e.Bound(op, sz), e.RequestCost(op, o, sz)
		if b > c || math.IsNaN(b) {
			t.Fatalf("counts %v stripes %v op %v size %d off %d: bound %v > cost %v",
				p.Counts(), xs, op, sz, o, b, c)
		}
	})
}

func BenchmarkEvaluatorBound(b *testing.B) {
	// A 704 KB round: 2 MB leaves a 640 KB residual to slice.
	e, err := evalParams().NewEvaluator(64<<10, 160<<10)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		costSink = e.Bound(device.Op(i&1), 2<<20)
	}
}
