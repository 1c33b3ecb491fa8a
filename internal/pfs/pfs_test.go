package pfs

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/netsim"
	"harl/internal/sim"
)

// testbed builds the paper's default system: 6 HServers + 2 SServers.
func testbed(t testing.TB) (*sim.Engine, *FS) {
	return testbedOf(t, 6, 2)
}

// testbedOf builds a file system of hdds HServers followed by ssds
// SServers.
func testbedOf(t testing.TB, hdds, ssds int) (*sim.Engine, *FS) {
	t.Helper()
	e := sim.NewEngine(1)
	net := netsim.MustNew(e, netsim.GigabitEthernet())
	profiles := make([]device.Profile, 0, hdds+ssds)
	for i := 0; i < hdds; i++ {
		profiles = append(profiles, device.DefaultHDD())
	}
	for i := 0; i < ssds; i++ {
		profiles = append(profiles, device.DefaultSSD())
	}
	return e, MustNew(e, net, profiles)
}

func mustCreate(t testing.TB, e *sim.Engine, c *Client, name string, st layout.Striping) *File {
	t.Helper()
	var f *File
	e.Schedule(0, func() {
		c.Create(name, st, func(file *File, err error) {
			if err != nil {
				t.Errorf("create %q: %v", name, err)
				return
			}
			f = file
		})
	})
	e.Run()
	if f == nil {
		t.Fatalf("create %q did not complete", name)
	}
	return f
}

func TestNewValidatesProfiles(t *testing.T) {
	e := sim.NewEngine(1)
	net := netsim.MustNew(e, netsim.GigabitEthernet())
	if _, err := New(e, net, nil); err == nil {
		t.Fatal("empty server list should be rejected")
	}
	bad := device.DefaultHDD()
	bad.ReadRate = -1
	if _, err := New(e, net, []device.Profile{bad}); err == nil {
		t.Fatal("invalid profile should be rejected")
	}
}

func TestCountRoles(t *testing.T) {
	_, fs := testbed(t)
	h, s := fs.CountRoles()
	if h != 6 || s != 2 {
		t.Fatalf("roles = %d/%d, want 6/2", h, s)
	}
	if fs.Servers()[0].Role() != HServer || fs.Servers()[7].Role() != SServer {
		t.Fatal("server ordering broken")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreate(t, e, c, "data", st)

	payload := make([]byte, 512<<10)
	rng := rand.New(rand.NewSource(9))
	rng.Read(payload)

	var got []byte
	e.Schedule(0, func() {
		f.WriteAt(payload, 12345, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			f.ReadAt(12345, int64(len(payload)), func(data []byte, err error) {
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				got = data
			})
		})
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("round-trip data mismatch")
	}
	if f.Size() != 12345+int64(len(payload)) {
		t.Fatalf("EOF = %d", f.Size())
	}
}

func TestRoundTripAcrossLayouts(t *testing.T) {
	layouts := []layout.Striping{
		layout.Fixed(6, 2, 4<<10),
		{M: 6, N: 2, H: 16 << 10, S: 128 << 10},
		{M: 6, N: 2, H: 0, S: 64 << 10},
		{M: 6, N: 2, H: 36 << 10, S: 148 << 10},
	}
	for _, st := range layouts {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			e, fs := testbed(t)
			c := fs.NewClient("c0")
			f := mustCreate(t, e, c, "f", st)
			payload := make([]byte, 777<<10/3)
			rand.New(rand.NewSource(3)).Read(payload)
			var got []byte
			e.Schedule(0, func() {
				f.WriteAt(payload, 54321, func(error) {
					f.ReadAt(54321, int64(len(payload)), func(data []byte, _ error) { got = data })
				})
			})
			e.Run()
			if !bytes.Equal(got, payload) {
				t.Fatal("data mismatch")
			}
		})
	}
}

func TestUnwrittenRangesReadZero(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "sparse", layout.Fixed(6, 2, 64<<10))
	var got []byte
	e.Schedule(0, func() {
		f.ReadAt(1<<30, 4096, func(data []byte, _ error) { got = data })
	})
	e.Run()
	for i, b := range got {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
}

func TestCreateDuplicateAndOpenMissing(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	mustCreate(t, e, c, "dup", st)

	var dupErr, missErr error
	e.Schedule(0, func() {
		c.Create("dup", st, func(_ *File, err error) { dupErr = err })
		c.Open("missing", func(_ *File, err error) { missErr = err })
	})
	e.Run()
	if dupErr == nil {
		t.Fatal("duplicate create should fail")
	}
	if missErr == nil {
		t.Fatal("open of missing file should fail")
	}
}

func TestCreateRejectsWrongServerCount(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	var got error
	e.Schedule(0, func() {
		c.Create("bad", layout.Fixed(3, 1, 64<<10), func(_ *File, err error) { got = err })
	})
	e.Run()
	if got == nil {
		t.Fatal("striping with wrong server count should be rejected")
	}
}

func TestOpenSeesExistingFile(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Striping{M: 6, N: 2, H: 16 << 10, S: 96 << 10}
	f := mustCreate(t, e, c, "shared", st)
	payload := []byte("hello hybrid pfs")
	e.Schedule(0, func() { f.WriteAt(payload, 0, func(error) {}) })
	e.Run()

	c2 := fs.NewClient("c1")
	var got []byte
	e.Schedule(0, func() {
		c2.Open("shared", func(f2 *File, err error) {
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			if f2.Meta().Layout != layout.Mapper(st) {
				t.Errorf("layout = %v, want %v", f2.Meta().Layout, st)
			}
			f2.ReadAt(0, int64(len(payload)), func(data []byte, _ error) { got = data })
		})
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("second client read mismatch")
	}
}

func TestRemoveFreesServerSpace(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "victim", layout.Fixed(6, 2, 64<<10))
	e.Schedule(0, func() { f.WriteAt(make([]byte, 1<<20), 0, func(error) {}) })
	e.Run()
	var before int64
	for _, s := range fs.Servers() {
		before += s.StoredBytes()
	}
	if before == 0 {
		t.Fatal("write stored nothing")
	}
	var rmErr error
	e.Schedule(0, func() { c.Remove("victim", func(err error) { rmErr = err }) })
	e.Run()
	if rmErr != nil {
		t.Fatalf("remove: %v", rmErr)
	}
	for _, s := range fs.Servers() {
		if s.StoredBytes() != 0 {
			t.Fatalf("server %s still stores %d bytes", s.Name, s.StoredBytes())
		}
	}
	e.Schedule(0, func() { c.Remove("victim", func(err error) { rmErr = err }) })
	e.Run()
	if rmErr == nil {
		t.Fatal("double remove should fail")
	}
}

// TestHServersAreTheBottleneck reproduces the motivation of Figure 1(a):
// under the default fixed 64 KB layout, HServers accumulate several times
// the disk-busy time of SServers for the same striped workload.
func TestHServersAreTheBottleneck(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "ior", layout.Fixed(6, 2, 64<<10))

	// 64 requests of 512KB at striped offsets: every server gets an equal
	// byte share, like IOR over a round-robin file.
	rng := rand.New(rand.NewSource(11))
	var issue func(i int)
	issue = func(i int) {
		if i == 64 {
			return
		}
		off := int64(rng.Intn(1024)) * 512 << 10
		f.ReadAt(off, 512<<10, func([]byte, error) { issue(i + 1) })
	}
	e.Schedule(0, func() { issue(0) })
	e.Run()

	var hBusy, sBusy sim.Duration
	for _, s := range fs.Servers() {
		if s.Role() == HServer {
			hBusy += s.DiskBusy()
		} else {
			sBusy += s.DiskBusy()
		}
	}
	hAvg := float64(hBusy) / 6
	sAvg := float64(sBusy) / 2
	if ratio := hAvg / sAvg; ratio < 2 {
		t.Fatalf("HServer/SServer busy ratio = %.2f, want >= 2 (Fig 1a shows ~3.5)", ratio)
	}
}

func TestSlowFactorDegradesServer(t *testing.T) {
	e, fs := testbed(t)
	fs.Servers()[0].SlowFactor = 10
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "f", layout.Fixed(6, 2, 64<<10))
	e.Schedule(0, func() { f.WriteAt(make([]byte, 1<<20), 0, func(error) {}) })
	e.Run()
	s0 := fs.Servers()[0].DiskBusy()
	s1 := fs.Servers()[1].DiskBusy()
	if float64(s0) < 5*float64(s1) {
		t.Fatalf("degraded server busy %v not >> healthy %v", s0, s1)
	}
}

func TestSharedNodeClientsContend(t *testing.T) {
	// Two processes on one compute node must share its link: the same
	// total work takes longer than on two separate nodes.
	run := func(shared bool) sim.Time {
		e, fs := testbed(t)
		c0 := fs.NewClient("n0")
		var c1 *Client
		if shared {
			c1 = fs.AdoptClient("n0p1", c0)
		} else {
			c1 = fs.NewClient("n1")
		}
		f0 := mustCreate(t, e, c0, "f0", layout.Fixed(6, 2, 64<<10))
		f1 := mustCreate(t, e, c1, "f1", layout.Fixed(6, 2, 64<<10))
		buf := make([]byte, 4<<20)
		var end sim.Time
		done := sim.NewCountdown(2, func(error) { end = e.Now() })
		e.Schedule(0, func() {
			f0.WriteAt(buf, 0, func(error) { done.Done(nil) })
			f1.WriteAt(buf, 0, func(error) { done.Done(nil) })
		})
		e.Run()
		return end
	}
	sharedEnd := run(true)
	separateEnd := run(false)
	if sharedEnd <= separateEnd {
		t.Fatalf("shared-node run (%v) should be slower than separate nodes (%v)", sharedEnd, separateEnd)
	}
}

// Property: write-then-read returns the written bytes for arbitrary
// offsets and sizes under an asymmetric layout.
func TestRoundTripProperty(t *testing.T) {
	prop := func(off32 uint32, size16 uint16, seed int64) bool {
		e, fs := testbed(t)
		c := fs.NewClient("c0")
		st := layout.Striping{M: 6, N: 2, H: 12 << 10, S: 52 << 10}
		var f *File
		e.Schedule(0, func() {
			c.Create("f", st, func(file *File, err error) { f = file })
		})
		e.Run()
		off := int64(off32 % (1 << 22))
		size := int64(size16) + 1
		payload := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(payload)
		ok := false
		e.Schedule(0, func() {
			f.WriteAt(payload, off, func(error) {
				f.ReadAt(off, size, func(data []byte, _ error) {
					ok = bytes.Equal(data, payload)
				})
			})
		})
		e.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
