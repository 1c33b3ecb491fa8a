package sim

import (
	"fmt"
	"math/rand"
)

// event is a scheduled callback. Events with equal timestamps fire in
// scheduling order (seq), which keeps runs deterministic. Records come
// from the engine's Pool and are recycled when they fire, so the steady
// scheduling path does not allocate; exactly one of fn, dfn, cfn is
// set. dfn and cfn carry a precomputed (start, end) span — and cfn one
// caller argument — so completion callbacks need no closure either.
type event struct {
	next  *event // intrusive wheel bucket chain
	at    Time
	seq   uint64
	fn    func()
	dfn   func(start, end Time)
	cfn   func(arg any, start, end Time)
	arg   any
	start Time
	end   Time
}

// EventPoolCap bounds the engine's event pool (see Pool).
const EventPoolCap = 1 << 14

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use: all simulated components run on the single virtual
// timeline and are driven from Run.
type Engine struct {
	now     Time
	seq     uint64
	q       wheelQueue
	rng     *rand.Rand
	stopped bool
	pool    Pool[event]

	// Processed counts events executed since construction; useful for
	// cost accounting and runaway detection in tests.
	Processed uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
// The same seed always yields the same simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), pool: Pool[event]{Cap: EventPoolCap}}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. All stochastic
// model components (device startup jitter, random workload offsets) must
// draw from this source, never from the global rand, so that a simulation
// is reproducible from its seed alone.
func (e *Engine) Rand() *rand.Rand { return e.rng }

func (e *Engine) allocEvent(at Time) *event {
	ev := e.pool.Get()
	e.seq++
	ev.at, ev.seq = at, e.seq
	return ev
}

// recycle returns a fired event record to the pool. Callback fields are
// nilled first so a pooled record never retains a closure (or whatever
// the closure captured) across its idle time. at and seq are rewritten
// when the record is next scheduled, and the wheel clears next as it
// drains a bucket.
func (e *Engine) recycle(ev *event) {
	ev.fn, ev.dfn, ev.cfn, ev.arg = nil, nil, nil, nil
	ev.start, ev.end = 0, 0
	e.pool.Put(ev)
}

// PoolStats reports the event pool's Stats: its current size, its
// high-water mark, and how many records were dropped at the cap.
func (e *Engine) PoolStats() (pooled, highWater int, drops uint64) {
	return e.pool.Stats()
}

// Schedule runs fn after delay of virtual time. A negative delay panics:
// scheduling into the past is always a modelling bug.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.ScheduleAt(e.now.Add(delay), fn)
}

// ScheduleAt runs fn at absolute virtual time at, which must not precede
// the current time.
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.allocEvent(at)
	ev.fn = fn
	e.q.push(ev)
}

// scheduleSpan schedules done(start, end) at time at. The span rides in
// the pooled event record, so completion callbacks that only need their
// reservation window (Resource.UseAt) cost no closure allocation.
func (e *Engine) scheduleSpan(at Time, start, end Time, done func(start, end Time)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if done == nil {
		panic("sim: nil event function")
	}
	ev := e.allocEvent(at)
	ev.dfn = done
	ev.start, ev.end = start, end
	e.q.push(ev)
}

// ScheduleCallAt schedules fn(arg, start, end) at absolute time at.
// Passing a package-level function and a pooled arg keeps the call
// allocation-free; it is the closure-free form of ScheduleAt for
// callers that need one word of context plus a time span.
func (e *Engine) ScheduleCallAt(at Time, fn func(arg any, start, end Time), arg any, start, end Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event function")
	}
	ev := e.allocEvent(at)
	ev.cfn = fn
	ev.arg = arg
	ev.start, ev.end = start, end
	e.q.push(ev)
}

// ScheduleCall is ScheduleCallAt after delay of virtual time; start and
// end are both the fire time.
func (e *Engine) ScheduleCall(delay Duration, fn func(arg any, start, end Time), arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	at := e.now.Add(delay)
	e.ScheduleCallAt(at, fn, arg, at, at)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.q.len() }

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// dispatch fires one event. The record is recycled before the callback
// runs — the callback may schedule new events, which can legitimately
// reuse the record it was carried by.
func (e *Engine) dispatch(ev *event) {
	e.now = ev.at
	e.Processed++
	fn, dfn, cfn := ev.fn, ev.dfn, ev.cfn
	arg, start, end := ev.arg, ev.start, ev.end
	e.recycle(ev)
	switch {
	case fn != nil:
		fn()
	case dfn != nil:
		dfn(start, end)
	default:
		cfn(arg, start, end)
	}
}

// Run executes events in timestamp order until the queue drains or Stop is
// called, and returns the final virtual time.
func (e *Engine) Run() Time {
	e.stopped = false
	for e.q.len() > 0 && !e.stopped {
		e.dispatch(e.q.pop())
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is left at the later of the
// last executed event and the deadline. A Stop during the drain halts
// event execution immediately and leaves the clock where it stopped —
// the deadline is only claimed when the drain ran to completion.
func (e *Engine) RunUntil(deadline Time) Time {
	e.stopped = false
	for e.q.len() > 0 && !e.stopped {
		at, _ := e.q.peek()
		if at > deadline {
			break
		}
		e.dispatch(e.q.pop())
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
	return e.now
}
