package cost

import (
	"math"
	"testing"

	"harl/internal/device"
)

// checkBound fails t unless e's Bound for (op, size) is at most the cost
// of the request at every offset of one striping round (costs are
// periodic in the round). When the size is a whole number of rounds,
// every server carries exactly q stripes wherever the request starts, so
// the bound must then equal the cost.
func checkBound(t testing.TB, e *Evaluator, op device.Op, size int64) {
	h, s := e.Pair()
	round := int64(e.p.M)*h + int64(e.p.N)*s
	b := e.Bound(op, size)
	for off := int64(0); off < round; off++ {
		c := e.RequestCostDirect(op, off, size)
		if b > c || size%round == 0 && b != c {
			t.Fatalf("M=%d N=%d R=%d pair (%d,%d) op %v size %d off %d: bound %v, cost %v",
				e.p.M, e.p.N, e.p.R, h, s, op, size, off, b, c)
		}
	}
}

// TestBoundExhaustive checks Bound against every offset on every small
// geometry: up to three servers per tier (none included), stripes 0..5,
// every size up to three rounds and two bytes, both operations and
// replication factors 0..2.
func TestBoundExhaustive(t *testing.T) {
	checks := 0
	for m := 0; m <= 3; m++ {
		for n := 0; n <= 3; n++ {
			for r := 0; r <= min(2, m+n); r++ {
				p := evalParams()
				p.M, p.N, p.R = m, n, r
				if p.Validate() != nil {
					continue
				}
				for h := int64(0); h <= 5; h++ {
					for s := int64(0); s <= 5; s++ {
						round := int64(m)*h + int64(n)*s
						if round == 0 {
							continue
						}
						e, err := p.NewEvaluator(h, s)
						if err != nil {
							t.Fatal(err)
						}
						for size := int64(1); size <= 3*round+2; size++ {
							for _, op := range []device.Op{device.Read, device.Write} {
								checkBound(t, e, op, size)
								checks += int(round)
							}
						}
					}
				}
			}
		}
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
		round := 6*pair[0] + 2*pair[1]
		for _, size := range []int64{4 << 10, 64 << 10, 256 << 10, 512 << 10, 2 << 20, round, 2*round + 4096} {
			for _, op := range []device.Op{device.Read, device.Write} {
				b := e.Bound(op, size)
				for off := int64(0); off < round; off += 1 << 10 {
					if c := e.RequestCostDirect(op, off, size); b > c {
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
// geometries, offsets, sizes, operations and replication factors.
func FuzzEvaluatorBound(f *testing.F) {
	f.Add(uint16(6), uint16(2), uint64(36<<10), uint64(148<<10), uint64(12345), uint64(512<<10), uint8(0), false)
	f.Add(uint16(3), uint16(1), uint64(7), uint64(0), uint64(5), uint64(40), uint8(2), true)
	f.Add(uint16(0), uint16(4), uint64(0), uint64(4096), uint64(1<<33), uint64(2<<20), uint8(3), true)
	f.Add(uint16(5), uint16(5), uint64(100), uint64(300), uint64(999), uint64(2000), uint8(1), false)
	// 1000 HServers with 1 TB stripes: x·b passes 64 bits.
	f.Add(uint16(1000), uint16(24), uint64(1<<40), uint64(0), uint64(3), uint64(1<<39), uint8(0), true)
	f.Fuzz(func(t *testing.T, m, n uint16, h, s, off, size uint64, r uint8, write bool) {
		p := evalParams()
		p.M, p.N = int(m%1025), int(n%1025)
		p.R = int(r) % (p.M + p.N + 1)
		hs, ss := int64(h%(1<<41)), int64(s%(1<<41))
		if p.Validate() != nil || int64(p.M)*hs+int64(p.N)*ss == 0 {
			return
		}
		e, err := p.NewEvaluator(hs, ss)
		if err != nil {
			t.Fatal(err)
		}
		op := device.Read
		if write {
			op = device.Write
		}
		sz, o := int64(size%(1<<42))+1, int64(off%(1<<42))
		b, c := e.Bound(op, sz), e.RequestCostDirect(op, o, sz)
		if b > c || math.IsNaN(b) {
			t.Fatalf("M=%d N=%d R=%d pair (%d,%d) op %v size %d off %d: bound %v > cost %v",
				p.M, p.N, p.R, hs, ss, op, sz, o, b, c)
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
