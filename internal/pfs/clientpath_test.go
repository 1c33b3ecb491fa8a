package pfs

import (
	"fmt"
	"math"
	"testing"

	"harl/internal/layout"
	"harl/internal/sim"
)

// timerPolicy arms every client timer on every read: a deadline that
// never expires on a healthy server and a hedge that always fires first.
var timerPolicy = Policy{Timeout: 100 * sim.Millisecond, HedgeAfter: 50 * sim.Microsecond}

// wideFile creates a file striped 64 KB over a 3:1 HDD:SSD testbed of
// the given size, under the given policy.
func wideFile(t testing.TB, servers int, p Policy) (*sim.Engine, *FS, *File) {
	t.Helper()
	hdds, ssds := servers*3/4, servers/4
	e, fs := testbedOf(t, hdds, ssds)
	fs.ClientPolicy = p
	f := mustCreate(t, e, fs.NewClient("c0"), "wide", layout.Fixed(hdds, ssds, 64<<10))
	return e, fs, f
}

// issuePhantom starts one 256 KB phantom read or write at off.
func issuePhantom(f *File, read bool, off int64, done func(error)) {
	if read {
		f.ReadDiscard(off, 256<<10, done)
	} else {
		f.WriteZeros(off, 256<<10, done)
	}
}

// TestPhantomOpAllocsIndependentOfServers pins the allocation-free client
// path: once the pools are warm, a phantom 256 KB operation allocates
// only its Map result, whether the file spans 8 servers or 1024 and
// whether or not deadline and hedge timers are armed.
func TestPhantomOpAllocsIndependentOfServers(t *testing.T) {
	for _, p := range []Policy{{}, timerPolicy} {
		for _, read := range []bool{false, true} {
			allocs := make(map[int]float64)
			for _, servers := range []int{8, 1024} {
				e, _, f := wideFile(t, servers, p)
				var failed error
				done := func(err error) {
					if err != nil {
						failed = err
					}
				}
				var off int64
				allocs[servers] = testing.AllocsPerRun(50, func() {
					off += 256 << 10
					issuePhantom(f, read, off, done)
					e.Run()
				})
				if failed != nil {
					t.Fatalf("policy %+v read=%v servers=%d: %v", p, read, servers, failed)
				}
			}
			if allocs[8] > 3 || allocs[1024] != allocs[8] {
				t.Errorf("policy %+v read=%v: %v allocs per op on 8 servers, %v on 1024; want the same, at most 3",
					p, read, allocs[8], allocs[1024])
			}
		}
	}
}

// TestSubOpRecycledOnlyAtZeroPending checks the pool-lifetime rule: a
// sub-op record whose attempt has resolved stays out of the pool while
// its deadline timer is still armed, and returns once that timer fires
// as a no-op.
func TestSubOpRecycledOnlyAtZeroPending(t *testing.T) {
	e, fs, f := wideFile(t, 8, timerPolicy)
	var done bool
	issuePhantom(f, true, 0, func(err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		done = true
	})
	subs := len(f.meta.Layout.Map(0, 256<<10))
	// The read, hedges included, completes long before its deadlines.
	e.RunUntil(sim.Time(timerPolicy.Timeout / 2))
	if !done {
		t.Fatal("read did not complete before its deadlines")
	}
	if fs.Faults.Hedges != uint64(subs) {
		t.Fatalf("hedges = %d, want one per sub-request (%d)", fs.Faults.Hedges, subs)
	}
	if pooled, _, _ := fs.subs.Stats(); pooled != 0 {
		t.Fatalf("%d sub-op records pooled while their deadline timers are armed", pooled)
	}
	e.Run()
	if pooled, _, _ := fs.subs.Stats(); pooled != subs {
		t.Fatalf("%d sub-op records pooled after the timers fired, want %d", pooled, subs)
	}
}

// TestPoolCaps asserts every hot-path pool sheds records beyond its
// cap: a burst with far more of each record in flight than the cap must
// leave exactly the cap pooled afterwards, with the rest dropped to the
// garbage collector rather than pinned for the rest of the run.
func TestPoolCaps(t *testing.T) {
	e, fs, f := wideFile(t, 1024, Policy{})
	// 2048 concurrent 1 MB reads: 2048 client operations, 32768
	// sub-requests, and as many request transfers and completion events
	// in flight at once. The requests are small, so they reach the
	// servers long before the disks drain: the disk passes pile up too.
	const ops = 2048
	for i := int64(0); i < ops; i++ {
		f.ReadDiscard(i<<20, 1<<20, func(err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
		})
	}
	e.Run()
	for _, p := range []struct {
		name  string
		cap   int
		stats func() (pooled, highWater int, drops uint64)
	}{
		{"event", sim.EventPoolCap, e.PoolStats},
		{"diskOp", diskOpPoolCap, fs.ops.Stats},
		{"subOp", subOpPoolCap, fs.subs.Stats},
		{"clientOp", clientOpPoolCap, fs.clientOps.Stats},
		{"xfer", 1 << 12, fs.Network().PoolStats}, // netsim's xferPoolCap
	} {
		pooled, hw, drops := p.stats()
		if pooled != p.cap || hw != p.cap || drops == 0 {
			t.Errorf("%s pool: pooled %d, high water %d, drops %d; want %d, %d and some drops",
				p.name, pooled, hw, drops, p.cap, p.cap)
		}
	}
}

// TestCreateRefusesOverflowingLayout: a layout whose round size
// overflows int64 used to be accepted and then either panicked in Map
// or silently misplaced data; the MDS must refuse it.
func TestCreateRefusesOverflowingLayout(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	for _, lo := range []layout.Mapper{
		layout.Striping{M: 6, N: 2, H: 1 << 61, S: 64 << 10},
		layout.Striping{M: 6, N: 2, H: math.MaxInt64, S: 64 << 10},
		layout.Tiered{Counts: []int{6, 2}, Stripes: []int64{math.MaxInt64, 64 << 10}},
	} {
		var err error
		created := false
		e.Schedule(0, func() {
			c.Create(fmt.Sprint(lo), lo, func(f *File, e error) { created, err = f != nil, e })
		})
		e.Run()
		if created || err == nil {
			t.Errorf("create with %v: created=%v err=%v, want refused", lo, created, err)
		}
	}
}

func BenchmarkPhantomWrite(b *testing.B) { benchPhantom(b, false) }
func BenchmarkPhantomRead(b *testing.B)  { benchPhantom(b, true) }

// benchPhantom issues b.N sequential 256 KB phantom operations, one in
// flight at a time, under the zero policy and under Timeout+HedgeAfter.
func benchPhantom(b *testing.B, read bool) {
	for _, c := range []struct {
		name string
		p    Policy
	}{{"zero", Policy{}}, {"timeout+hedge", timerPolicy}} {
		for _, servers := range []int{8, 1024} {
			b.Run(fmt.Sprintf("policy=%s/servers=%d", c.name, servers), func(b *testing.B) {
				b.ReportAllocs()
				e, _, f := wideFile(b, servers, c.p)
				n := 0
				var next func(error)
				next = func(err error) {
					if err != nil {
						b.Fatal(err)
					}
					if n++; n <= b.N {
						issuePhantom(f, read, int64(n)*256<<10, next)
					}
				}
				b.ResetTimer()
				next(nil)
				e.Run()
			})
		}
	}
}
