package sim

import "fmt"

// Resource models a station that serves work sequentially on a fixed number
// of identical service slots (a disk has one head, a duplex link has one
// lane per direction, a RAID device may have several). Work is admitted in
// request order: each request occupies the earliest-available slot for its
// service duration. This is an analytic FIFO queue — service times are known
// at submission, so queueing delay is computed exactly without per-byte
// events, which keeps large simulations fast while still modelling
// contention faithfully.
type Resource struct {
	engine *Engine
	name   string
	free   []Time // next instant each slot becomes idle

	// Accounting for utilization and queueing reports.
	Served    uint64
	BusyTotal Duration
	WaitTotal Duration
}

// NewResource creates a resource with the given number of service slots.
func NewResource(e *Engine, name string, slots int) *Resource {
	if slots <= 0 {
		panic(fmt.Sprintf("sim: resource %q needs >=1 slot, got %d", name, slots))
	}
	return &Resource{engine: e, name: name, free: make([]Time, slots)}
}

// Name returns the diagnostic name given at construction.
func (r *Resource) Name() string { return r.name }

// Use submits a unit of work taking service virtual time and schedules
// done(start, end) for when it completes. start is when the work actually
// begins (after any queueing delay) and end = start + service. done may be
// nil when only the resource occupancy matters.
func (r *Resource) Use(service Duration, done func(start, end Time)) (start, end Time) {
	return r.UseAt(r.engine.Now(), service, done)
}

// UseAt is Use with an explicit earliest start time, which must not
// precede the current virtual time. It lets callers compose reservations
// across resources — e.g. a network transfer that occupies the receiver's
// lane one propagation delay after the sender's.
func (r *Resource) UseAt(earliest Time, service Duration, done func(start, end Time)) (start, end Time) {
	start, end = r.reserve(earliest, service)
	if done != nil {
		r.engine.scheduleSpan(end, start, end, done)
	}
	return start, end
}

// UseCall is Use with a closure-free completion: fn(arg, start, end)
// fires at end. With a package-level fn and a pooled arg the whole
// reservation allocates nothing, which is what the per-request hot
// paths in pfs and netsim run on.
func (r *Resource) UseCall(service Duration, fn func(arg any, start, end Time), arg any) (start, end Time) {
	return r.UseCallAt(r.engine.Now(), service, fn, arg)
}

// UseCallAt is UseAt with a closure-free completion callback.
func (r *Resource) UseCallAt(earliest Time, service Duration, fn func(arg any, start, end Time), arg any) (start, end Time) {
	start, end = r.reserve(earliest, service)
	if fn != nil {
		r.engine.ScheduleCallAt(end, fn, arg, start, end)
	}
	return start, end
}

// reserve claims the earliest-available slot from earliest for service
// time and updates accounting; it is the queueing core shared by every
// Use variant.
func (r *Resource) reserve(earliest Time, service Duration) (start, end Time) {
	if service < 0 {
		panic(fmt.Sprintf("sim: resource %q negative service %v", r.name, service))
	}
	now := r.engine.Now()
	if earliest < now {
		panic(fmt.Sprintf("sim: resource %q earliest %v before now %v", r.name, earliest, now))
	}
	// Earliest-free slot; ties resolve to the lowest index for determinism.
	best := 0
	for i := 1; i < len(r.free); i++ {
		if r.free[i] < r.free[best] {
			best = i
		}
	}
	start = r.free[best]
	if start < earliest {
		start = earliest
	}
	end = start.Add(service)
	r.free[best] = end

	r.Served++
	r.BusyTotal += service
	r.WaitTotal += start.Sub(earliest)
	return start, end
}

// Utilization reports the fraction of elapsed virtual time the resource's
// slots spent busy, aggregated across slots. It is meaningful after a run.
func (r *Resource) Utilization() float64 {
	elapsed := r.engine.Now().Sub(0)
	if elapsed <= 0 {
		return 0
	}
	return r.BusyTotal.Seconds() / (elapsed.Seconds() * float64(len(r.free)))
}

// Countdown invokes a callback once a fixed number of completions
// arrive. It is the completion primitive for scatter-gather operations:
// a striped request finishes when its last sub-request finishes, a
// collective I/O phase when every participating rank arrives. The first
// non-nil error wins, but the callback still waits for every straggler
// — like errgroup.Wait — so no sub-request outlives its parent
// operation and late completions never touch freed state.
type Countdown struct {
	remaining int
	fn        func(error)
	firstErr  error
	fired     bool
}

// NewCountdown returns a countdown that calls fn(firstErr) after n Done
// calls. n == 0 is allowed; fn(nil) then fires on construction, keeping
// zero-fragment edge cases uniform.
func NewCountdown(n int, fn func(error)) *Countdown {
	c := &Countdown{remaining: n, fn: fn}
	if n == 0 {
		c.fire()
	}
	return c
}

func (c *Countdown) fire() {
	if c.fired {
		panic("sim: countdown fired twice")
	}
	c.fired = true
	if c.fn != nil {
		c.fn(c.firstErr)
	}
}

// Done records one completion and its outcome; the n-th call fires the
// callback with the first non-nil error recorded (nil if all succeeded).
func (c *Countdown) Done(err error) {
	if c.fired {
		panic("sim: countdown Done after fire")
	}
	if err != nil && c.firstErr == nil {
		c.firstErr = err
	}
	c.remaining--
	if c.remaining == 0 {
		c.fire()
	}
}

// Err returns the first error recorded so far.
func (c *Countdown) Err() error { return c.firstErr }

// Remaining reports how many completions are still outstanding.
func (c *Countdown) Remaining() int { return c.remaining }
