package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestResourceSerializesWork(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	var ends []Time
	e.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			r.Use(10*Millisecond, func(_, end Time) { ends = append(ends, end) })
		}
	})
	e.Run()
	want := []Time{Time(10 * Millisecond), Time(20 * Millisecond), Time(30 * Millisecond)}
	if len(ends) != 3 {
		t.Fatalf("completions = %d, want 3", len(ends))
	}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("end[%d] = %v, want %v", i, ends[i], want[i])
		}
	}
}

func TestResourceParallelSlots(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "raid", 2)
	var ends []Time
	e.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			r.Use(10*Millisecond, func(_, end Time) { ends = append(ends, end) })
		}
	})
	e.Run()
	// Two slots: pairs complete at 10ms and 20ms.
	want := []Time{Time(10 * Millisecond), Time(10 * Millisecond), Time(20 * Millisecond), Time(20 * Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("end[%d] = %v, want %v (all %v)", i, ends[i], want[i], ends)
		}
	}
}

func TestResourceIdleGapThenWork(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	var start, end Time
	e.Schedule(0, func() { r.Use(Millisecond, nil) })
	e.Schedule(50*Millisecond, func() {
		start, end = r.Use(2*Millisecond, nil)
	})
	e.Run()
	if start != Time(50*Millisecond) || end != Time(52*Millisecond) {
		t.Fatalf("start,end = %v,%v; want 50ms,52ms", start, end)
	}
}

func TestResourceAccounting(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	e.Schedule(0, func() {
		r.Use(10*Millisecond, nil)
		r.Use(10*Millisecond, func(_, _ Time) {}) // waits 10ms
	})
	e.Run()
	if r.Served != 2 {
		t.Fatalf("served = %d, want 2", r.Served)
	}
	if r.BusyTotal != 20*Millisecond {
		t.Fatalf("busy = %v, want 20ms", r.BusyTotal)
	}
	if r.WaitTotal != 10*Millisecond {
		t.Fatalf("wait = %v, want 10ms", r.WaitTotal)
	}
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestResourceZeroService(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	fired := false
	e.Schedule(0, func() {
		r.Use(0, func(start, end Time) {
			fired = true
			if start != end {
				t.Errorf("zero service start %v != end %v", start, end)
			}
		})
	})
	e.Run()
	if !fired {
		t.Fatal("zero-service completion never fired")
	}
}

func TestResourcePanics(t *testing.T) {
	e := NewEngine(1)
	mustPanic(t, func() { NewResource(e, "x", 0) })
	r := NewResource(e, "x", 1)
	mustPanic(t, func() { r.Use(-1, nil) })
}

// Property: with one slot, total makespan equals the sum of service times
// when all work is submitted at t=0 (FIFO conservation).
func TestResourceConservationProperty(t *testing.T) {
	prop := func(services []uint16) bool {
		e := NewEngine(3)
		r := NewResource(e, "disk", 1)
		var sum Duration
		var last Time
		e.Schedule(0, func() {
			for _, s := range services {
				d := Duration(s) * Microsecond
				sum += d
				if _, end := r.Use(d, nil); end > last {
					last = end
				}
			}
		})
		e.Run()
		return last == Time(sum)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCountdown(t *testing.T) {
	fired := false
	c := NewCountdown(3, func(error) { fired = true })
	c.Done(nil)
	c.Done(nil)
	if fired {
		t.Fatal("fired early")
	}
	if c.Remaining() != 1 {
		t.Fatalf("remaining = %d, want 1", c.Remaining())
	}
	c.Done(nil)
	if !fired {
		t.Fatal("did not fire after n completions")
	}
	mustPanic(t, func() { c.Done(nil) })
}

func TestCountdownFirstErrorWinsButWaits(t *testing.T) {
	var got error
	fired := false
	c := NewCountdown(3, func(err error) { fired = true; got = err })
	errA := fmt.Errorf("first failure")
	errB := fmt.Errorf("second failure")
	c.Done(nil)
	c.Done(errA)
	if fired {
		t.Fatal("fired before all completions arrived")
	}
	if c.Err() != errA {
		t.Fatalf("Err() = %v, want %v", c.Err(), errA)
	}
	c.Done(errB)
	if !fired {
		t.Fatal("did not fire after n completions")
	}
	if got != errA {
		t.Fatalf("callback error = %v, want first error %v", got, errA)
	}
	mustPanic(t, func() { c.Done(nil) })
}

// TestErrCountdownAllSuccess checks that a countdown whose completions
// all succeed hands its callback a nil error.
func TestErrCountdownAllSuccess(t *testing.T) {
	var got error = fmt.Errorf("sentinel")
	c := NewCountdown(2, func(err error) { got = err })
	c.Done(nil)
	c.Done(nil)
	if got != nil {
		t.Fatalf("callback error = %v, want nil", got)
	}
	if c.Err() != nil {
		t.Fatalf("Err() = %v, want nil", c.Err())
	}
}

func TestCountdownZero(t *testing.T) {
	fired := false
	NewCountdown(0, func(error) { fired = true })
	if !fired {
		t.Fatal("zero countdown should fire immediately")
	}
	NewCountdown(0, nil) // a nil callback is allowed
}

// TestErrCountdownZero checks that a zero countdown fires with a nil error.
func TestErrCountdownZero(t *testing.T) {
	fired := false
	NewCountdown(0, func(err error) {
		if err != nil {
			t.Errorf("zero countdown error = %v", err)
		}
		fired = true
	})
	if !fired {
		t.Fatal("zero err countdown should fire immediately")
	}
}
