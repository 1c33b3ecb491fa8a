package pfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"harl/internal/layout"
	"harl/internal/sim"
)

// retryPolicy is a policy aggressive enough that every test fault is
// survivable if the server comes back within a few hundred milliseconds.
func retryPolicy() Policy {
	return Policy{
		Timeout:    50 * sim.Millisecond,
		MaxRetries: 8,
		Backoff:    2 * sim.Millisecond,
	}
}

func fill(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func TestScaleHonorsFractionalFactors(t *testing.T) {
	elapsed := func(factor float64) sim.Duration {
		e, fs := testbed(t)
		fs.Straggle(0, factor)
		c := fs.NewClient("c0")
		f := mustCreate(t, e, c, "data", layout.Fixed(6, 2, 64<<10))
		var end sim.Time
		e.Schedule(0, func() {
			f.WriteAt(fill(1, 64<<10), 0, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
				end = e.Now()
			})
		})
		e.Run()
		return end.Sub(0)
	}
	nominal := elapsed(1)
	fast := elapsed(0.5)
	slow := elapsed(4)
	if !(fast < nominal && nominal < slow) {
		t.Fatalf("elapsed fast=%v nominal=%v slow=%v, want fast < nominal < slow", fast, nominal, slow)
	}
}

func TestStragglePanicsOnNonPositiveFactor(t *testing.T) {
	_, fs := testbed(t)
	for _, bad := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Straggle(0, %v) did not panic", bad)
				}
			}()
			fs.Straggle(0, bad)
		}()
	}
}

func TestCrashedServerSwallowsWithoutPolicy(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	f := mustCreate(t, e, c, "data", layout.Fixed(6, 2, 64<<10))
	fs.Crash(0)
	completed := false
	e.Schedule(0, func() {
		f.WriteAt(fill(2, 256<<10), 0, func(error) { completed = true })
	})
	e.Run()
	// Without deadlines the dropped sub-request leaves the operation
	// pending forever; the engine simply drains.
	if completed {
		t.Fatal("write to crashed server completed without any recovery policy")
	}
	if fs.Faults.Dropped == 0 {
		t.Fatal("crash did not drop any requests")
	}
}

func TestWriteRidesOutCrashWithRetries(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = retryPolicy()
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreate(t, e, c, "data", st)

	payload := fill(3, 512<<10)
	fs.Crash(2)
	var done bool
	var werr error
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) { done, werr = true, err })
	})
	e.Schedule(120*sim.Millisecond, func() { fs.Recover(2) })
	e.Run()
	if !done {
		t.Fatal("write never completed")
	}
	if werr != nil {
		t.Fatalf("write after recovery: %v", werr)
	}
	if fs.Faults.Timeouts == 0 || fs.Faults.Retries == 0 {
		t.Fatalf("expected timeouts and retries, got %+v", fs.Faults)
	}
	if f.Size() != int64(len(payload)) {
		t.Fatalf("EOF = %d, want %d", f.Size(), len(payload))
	}

	var got []byte
	e.Schedule(0, func() {
		f.ReadAt(0, int64(len(payload)), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read back: %v", err)
			}
			got = data
		})
	})
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("acknowledged write did not read back byte-identical")
	}
}

func TestFlakyWriteFailsWithoutCommit(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = Policy{Timeout: 50 * sim.Millisecond, MaxRetries: 2, Backoff: sim.Millisecond}
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreate(t, e, c, "data", st)
	fs.SetFlaky(0, 1, 0) // every request errors

	var werr error
	e.Schedule(0, func() {
		f.WriteAt(fill(4, 64<<10), 0, func(err error) { werr = err })
	})
	e.Run()
	if !errors.Is(werr, ErrRetriesExhausted) || !errors.Is(werr, ErrFlaky) {
		t.Fatalf("write error = %v, want retries-exhausted wrapping flaky", werr)
	}
	if f.Size() != 0 {
		t.Fatalf("EOF advanced to %d on a failed write", f.Size())
	}
	if got := fs.FileBytesOn("data", 0); got != 0 {
		t.Fatalf("failed write committed %d bytes", got)
	}
	if want := uint64(3); fs.Faults.FlakyErrs != want { // initial + 2 retries
		t.Fatalf("flaky errors = %d, want %d", fs.Faults.FlakyErrs, want)
	}
}

func TestHedgedReadWinsOverDroppedPrimary(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = Policy{
		Timeout:    400 * sim.Millisecond,
		MaxRetries: 2,
		Backoff:    sim.Millisecond,
		HedgeAfter: 50 * sim.Millisecond,
	}
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreate(t, e, c, "data", st)
	payload := fill(5, 64<<10)
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	e.Run()

	// Drop every request while the primary is in flight; heal the server
	// just before the hedge fires so the duplicate succeeds long before
	// the primary's deadline would.
	fs.SetFlaky(0, 0, 1)
	var got []byte
	var start, end sim.Time
	e.Schedule(0, func() {
		start = e.Now()
		f.ReadAt(0, int64(len(payload)), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got, end = data, e.Now()
		})
	})
	e.Schedule(49*sim.Millisecond, func() { fs.SetFlaky(0, 0, 0) })
	e.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("hedged read returned wrong bytes")
	}
	if fs.Faults.Hedges != 1 || fs.Faults.HedgeWins != 1 {
		t.Fatalf("hedges/wins = %d/%d, want 1/1", fs.Faults.Hedges, fs.Faults.HedgeWins)
	}
	// The hedge resolves the read shortly after HedgeAfter — far below
	// the deadline the dropped primary would have burned.
	latency := end.Sub(start)
	if deadline := 400 * sim.Millisecond; latency >= deadline {
		t.Fatalf("hedged read took %v, not below the %v deadline", latency, deadline)
	}
	if floor := 50 * sim.Millisecond; latency < floor {
		t.Fatalf("hedged read took %v, below HedgeAfter %v — hedge cannot have served it", latency, floor)
	}
}

func TestHealthTransitions(t *testing.T) {
	e, fs := testbed(t)
	fs.ClientPolicy = Policy{Timeout: 20 * sim.Millisecond, MaxRetries: 8, Backoff: sim.Millisecond}
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	f := mustCreate(t, e, c, "data", st)

	if fs.Health(0) != Healthy {
		t.Fatalf("initial health = %v", fs.Health(0))
	}
	fs.Crash(0)
	if fs.Health(0) != Down {
		t.Fatalf("health after crash = %v", fs.Health(0))
	}
	fs.Recover(0)
	if fs.Health(0) != Healthy {
		t.Fatalf("health after recover = %v", fs.Health(0))
	}

	// A timeout marks the server Suspect; the next success clears it.
	fs.SetFlaky(0, 0, 1)
	sawSuspect := false
	e.Schedule(0, func() {
		f.WriteZeros(0, 64<<10, func(err error) {
			if err != nil {
				t.Errorf("write after heal: %v", err)
			}
		})
	})
	e.Schedule(30*sim.Millisecond, func() {
		sawSuspect = fs.Health(0) == Suspect
		fs.SetFlaky(0, 0, 0)
	})
	e.Run()
	if !sawSuspect {
		t.Fatal("timeout did not mark the server Suspect")
	}
	if fs.Health(0) != Healthy {
		t.Fatalf("health after successful retry = %v, want Healthy", fs.Health(0))
	}
}

func TestFailFastOpenAndCreate(t *testing.T) {
	e, fs := testbed(t)
	c := fs.NewClient("c0")
	st := layout.Fixed(6, 2, 64<<10)
	mustCreate(t, e, c, "old", st)

	c.Policy.FailFast = true
	fs.Crash(1)
	var openErr, createErr error
	e.Schedule(0, func() {
		c.Open("old", func(_ *File, err error) { openErr = err })
		c.Create("new", st, func(_ *File, err error) { createErr = err })
	})
	e.Run()
	var deg *DegradedError
	if !errors.As(openErr, &deg) || len(deg.Servers) != 1 || deg.Servers[0] != 1 {
		t.Fatalf("open error = %v, want DegradedError{servers: [1]}", openErr)
	}
	if !errors.As(createErr, &deg) {
		t.Fatalf("create error = %v, want DegradedError", createErr)
	}
	if fs.Faults.FailFasts != 2 {
		t.Fatalf("fail-fasts = %d, want 2", fs.Faults.FailFasts)
	}

	// A fail-fasted Create must not leave the file behind.
	fs.Recover(1)
	var f *File
	e.Schedule(0, func() {
		c.Create("new", st, func(file *File, err error) {
			if err != nil {
				t.Errorf("create after recovery: %v", err)
			}
			f = file
		})
	})
	e.Run()
	if f == nil {
		t.Fatal("create after recovery did not complete")
	}
	if got := f.Degraded(); len(got) != 0 {
		t.Fatalf("Degraded() = %v after full recovery, want empty", got)
	}
}

func TestSetFlakyValidatesProbabilities(t *testing.T) {
	_, fs := testbed(t)
	for _, bad := range [][2]float64{{-0.1, 0}, {0, -0.1}, {0.7, 0.7}} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetFlaky(%v, %v) did not panic", bad[0], bad[1])
				}
			}()
			fs.SetFlaky(0, bad[0], bad[1])
		}()
	}
}

// Same seed, same fault schedule, same traffic — counters and virtual
// clock must replay bit-identically.
func TestFaultReplayIsDeterministic(t *testing.T) {
	run := func() (FaultStats, sim.Time) {
		e, fs := testbed(t)
		fs.ClientPolicy = retryPolicy()
		c := fs.NewClient("c0")
		f := mustCreate(t, e, c, "data", layout.Fixed(6, 2, 64<<10))
		for i := range fs.Servers() {
			fs.SetFlaky(i, 0.2, 0.1)
		}
		for i := 0; i < 4; i++ {
			off := int64(i) * 256 << 10
			e.Schedule(sim.Duration(i)*sim.Millisecond, func() {
				f.WriteAt(fill(int64(10+i), 256<<10), off, func(error) {})
			})
		}
		e.Schedule(5*sim.Millisecond, func() { fs.Crash(3) })
		e.Schedule(90*sim.Millisecond, func() { fs.Recover(3) })
		e.Run()
		return fs.Faults, e.Now()
	}
	statsA, endA := run()
	statsB, endB := run()
	if statsA != statsB || endA != endB {
		t.Fatalf("replay diverged:\n  a=%+v end=%v\n  b=%+v end=%v", statsA, endA, statsB, endB)
	}
}
