package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// queuePair drives the timer wheel and the plain binary heap
// (eventHeapSlice, the oracle) through the same operations. A push
// hands both the same event record, so every pop must return the very
// record the oracle pops. now follows the engine's clock — a pop moves
// it to the popped event, a bounded drain to its deadline — and pushes
// are relative to it, so no push precedes the clock, as the engine
// guarantees.
type queuePair struct {
	t   testing.TB
	w   wheelQueue
	h   eventHeapSlice
	now Time
	seq uint64
}

func (q *queuePair) push(delay Duration, id int) {
	q.seq++
	ev := &event{at: q.now.Add(delay), seq: q.seq, arg: id}
	q.w.push(ev)
	q.h.push(ev)
}

func (q *queuePair) pop() *event {
	q.t.Helper()
	if q.w.len() != len(q.h) {
		q.t.Fatalf("len: wheel %d, heap %d", q.w.len(), len(q.h))
	}
	got := q.w.pop()
	if len(q.h) == 0 {
		if got != nil {
			q.t.Fatalf("empty wheel popped (at %v, seq %d)", got.at, got.seq)
		}
		return nil
	}
	if want := q.h.pop(); got != want {
		q.t.Fatalf("pop: wheel (at %v, seq %d), heap (at %v, seq %d)", got.at, got.seq, want.at, want.seq)
	}
	q.now = got.at
	return got
}

// runUntil pops every event at or before deadline, bounding the drain
// by peek as Engine.RunUntil does, then moves the clock to deadline.
// The peek may sweep the wheel's cursor past deadline, so later pushes
// can land behind it.
func (q *queuePair) runUntil(deadline Time, fired func(*event)) {
	q.t.Helper()
	for {
		at, ok := q.w.peek()
		if ok != (len(q.h) > 0) || ok && at != q.h[0].at {
			q.t.Fatalf("peek: wheel (%v, %v), heap holds %d", at, ok, len(q.h))
		}
		if !ok || at > deadline {
			break
		}
		fired(q.pop())
	}
	if q.now < deadline {
		q.now = deadline
	}
}

// drain pops until both queues are empty.
func (q *queuePair) drain(fired func(*event)) {
	q.t.Helper()
	for q.w.len() > 0 {
		fired(q.pop())
	}
	if q.pop() != nil || len(q.h) != 0 {
		q.t.Fatalf("heap still holds %d events after the wheel drained", len(q.h))
	}
}

// TestWheelHeapDifferentialRandom replays randomized schedules — ties,
// zero delays, events pushed from a pop, far-future overflow events, a
// bounded drain — on the wheel and the heap oracle and requires the
// same pop sequence.
func TestWheelHeapDifferentialRandom(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		src := rand.New(rand.NewSource(int64(trial)))
		n := 200 + src.Intn(400)
		delays := make([]Duration, n)
		for i := range delays {
			switch src.Intn(10) {
			case 0:
				delays[i] = 0 // same-time tie, seq order must hold
			case 1:
				delays[i] = 20 * Second // beyond the wheel horizon
			case 2:
				delays[i] = Duration(src.Int63n(int64(60 * Second))) // overflow range
			default:
				delays[i] = Duration(src.Int63n(int64(50 * Millisecond)))
			}
		}
		nested := make([]Duration, n)
		for i := range nested {
			nested[i] = Duration(src.Int63n(int64(Millisecond)))
		}
		deadline := Time(src.Int63n(int64(30 * Second)))
		q := &queuePair{t: t}
		for i, d := range delays {
			q.push(d, i)
		}
		fired := func(ev *event) {
			if i := ev.arg.(int); i < n && i%3 == 0 {
				q.push(nested[i], n+i)
			}
		}
		q.runUntil(deadline, fired)
		q.drain(fired)
	}
}

// TestWheelHeapDifferentialStop replays the engine's stop-and-resume
// pattern on the wheel and the heap oracle: a drain halted part-way (a
// Stop) leaves the rest queued, a bounded drain (a RunUntil) follows,
// and a last drain resumes in order.
func TestWheelHeapDifferentialStop(t *testing.T) {
	q := &queuePair{t: t}
	for i := 0; i < 50; i++ {
		q.push(Duration(i)*Millisecond, i)
	}
	for q.pop().arg.(int) != 10 {
	}
	q.runUntil(q.now.Add(5*Millisecond), func(*event) {})
	q.drain(func(*event) {})
}

// TestWheelCascadeTieWithFineBucket pins the trickiest wheel case: a
// coarse bucket and a fine bucket starting at the same tick. Both must
// drain before any of their events pops, or same-tick events pop out
// of seq order.
func TestWheelCascadeTieWithFineBucket(t *testing.T) {
	q := &queuePair{t: t}
	target := Duration(64 << wheelTickBits) // start of a level-1 block
	half := Duration(32 << wheelTickBits)
	// Pushed first, from tick 0: lands in a coarse bucket.
	q.push(target, 1)
	q.push(target-half, 0)
	var order []int
	q.pop()
	// The clock is half a block short of the target: the same instant
	// pushed again lands in a level-0 bucket for the identical tick.
	q.push(half, 2)
	q.drain(func(ev *event) { order = append(order, ev.arg.(int)) })
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", order)
	}
}

// FuzzWheelQueue runs a script of pushes, pops and bounded drains on the
// wheel and the heap oracle; every pop must match. Each op byte's low
// two bits pick the operation and the rest parameterise it.
func FuzzWheelQueue(f *testing.F) {
	// The cascade tie of TestWheelCascadeTieWithFineBucket.
	target := Duration(64 << wheelTickBits)
	half := Duration(32 << wheelTickBits)
	f.Add([]byte(wheelScript(nil).push(target).push(target - half).pop().push(half).pop().pop()))
	// TestWheelRunUntilThenPastCursor at the queue level: the bounded
	// drain's peek sweeps the cursor toward 10s, then nearer pushes land
	// behind it.
	f.Add([]byte(wheelScript(nil).push(10 * Second).until(3 * Second).push(Millisecond).push(Microsecond).pop().pop()))
	f.Add([]byte(wheelScript(nil).tiny(0).tiny(0).push(20 * Second).tiny(3).pop().push(60 * Second).until(Second).tiny(9)))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > fuzzMaxScript {
			script = script[:fuzzMaxScript] // keeps the clock far from overflow
		}
		q := &queuePair{t: t}
		arg := func(n int) []byte {
			var b [4]byte
			script = script[copy(b[:n], script):]
			return b[:n]
		}
		for len(script) > 0 {
			op := script[0]
			script = script[1:]
			switch op & 3 {
			case fuzzTiny:
				q.push(Duration(arg(1)[0])*fuzzTinyUnit, 0)
			case fuzzPush:
				q.push(Duration(binary.LittleEndian.Uint32(arg(4)))<<(op>>2&15), 0)
			case fuzzPop:
				q.pop()
			case fuzzUntil:
				q.runUntil(q.now.Add(Duration(binary.LittleEndian.Uint32(arg(4)))<<(op>>2&15)), func(*event) {})
			}
		}
		q.drain(func(*event) {})
	})
}

// FuzzWheelQueue's operations.
const (
	fuzzTiny     = iota // push now + b·fuzzTinyUnit, b the next byte: same-tick ties and near pushes
	fuzzPush            // push now + d, d the next 4 bytes (little-endian) shifted left by op>>2 & 15
	fuzzPop             // pop one event (a no-op on an empty queue)
	fuzzUntil           // drain to now + d, d as for fuzzPush, bounded by peek
	fuzzTinyUnit = 97 * Nanosecond

	fuzzMaxScript = 4096
)

// wheelScript builds FuzzWheelQueue inputs.
type wheelScript []byte

func (s wheelScript) tiny(b byte) wheelScript { return append(s, fuzzTiny, b) }

func (s wheelScript) pop() wheelScript { return append(s, fuzzPop) }

func (s wheelScript) push(d Duration) wheelScript { return s.dur(fuzzPush, d) }

func (s wheelScript) until(d Duration) wheelScript { return s.dur(fuzzUntil, d) }

// dur encodes d as the smallest shift that leaves a 32-bit mantissa;
// d must be exact at that shift.
func (s wheelScript) dur(op byte, d Duration) wheelScript {
	shift := 0
	for d>>shift > math.MaxUint32 {
		shift++
	}
	if shift > 15 || d>>shift<<shift != d {
		panic(fmt.Sprintf("wheelScript: %v is not encodable", d))
	}
	return binary.LittleEndian.AppendUint32(append(s, op|byte(shift)<<2), uint32(d>>shift))
}

// TestWheelRunUntilThenPastCursor pins the peek-advances-cursor edge:
// RunUntil with a far deadline may sweep the wheel cursor forward; a
// later schedule at a nearer time must still fire first.
func TestWheelRunUntilThenPastCursor(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10*Second, func() {})
	e.RunUntil(Time(3 * Second)) // peeks the 10s event, advances no further
	var order []int
	e.Schedule(Millisecond, func() { order = append(order, 1) })
	e.Schedule(Microsecond, func() { order = append(order, 0) })
	e.Run()
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v, want [0 1]", order)
	}
}

// TestEventPoolRecycles asserts the pool actually reuses records and
// that callback fields are nilled, so pooled events retain no closures.
// pfs's TestPoolCaps covers the cap.
func TestEventPoolRecycles(t *testing.T) {
	e := NewEngine(1)
	leaked := make([]byte, 1<<20)
	e.Schedule(Millisecond, func() { _ = leaked })
	e.Run()
	pooled, hw, drops := e.PoolStats()
	if pooled != 1 || hw != 1 || drops != 0 {
		t.Fatalf("PoolStats = %d, %d, %d; want 1, 1, 0", pooled, hw, drops)
	}
	for _, ev := range e.pool.free {
		if ev.fn != nil || ev.dfn != nil || ev.cfn != nil || ev.arg != nil {
			t.Fatalf("pooled event retains callback state: %+v", ev)
		}
	}
	// The next schedule must reuse the pooled record.
	e.Schedule(Millisecond, func() {})
	if pooled, _, _ := e.PoolStats(); pooled != 0 {
		t.Fatalf("pooled = %d after reuse, want 0", pooled)
	}
}

// TestScheduleSteadyStateAllocs is the zero-alloc gate: once the pool
// and wheel are warm, scheduling and dispatching events amortizes to
// at most 1 allocation per event (the occasional near-heap growth).
func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine(1)
	// Warm up: grow the pool and the near/overflow heaps.
	for i := 0; i < 4096; i++ {
		e.Schedule(Duration(i%100)*Microsecond, func() {})
	}
	e.Run()
	tick := func() {}
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 512; i++ {
			e.Schedule(Duration(i%64)*Microsecond, tick)
		}
		e.Run()
	})
	// 512 events per run; require amortized <= 1 alloc per event with
	// lots of headroom — in practice this is ~0.
	if avg > 512 {
		t.Fatalf("allocs per 512-event run = %.1f, want <= 512 (1/event)", avg)
	}
	perEvent := avg / 512
	t.Logf("amortized allocs/event = %.4f", perEvent)
	if perEvent > 1 {
		t.Fatalf("amortized allocs/event = %.2f, want <= 1", perEvent)
	}
}

// TestResourceUseCallMatchesUse asserts the closure-free Use variants
// reserve identically to UseAt and deliver the same span.
func TestResourceUseCallMatchesUse(t *testing.T) {
	e := NewEngine(1)
	r1 := NewResource(e, "a", 2)
	r2 := NewResource(e, "b", 2)
	type span struct{ s, e Time }
	var got, want []span
	fn := func(arg any, s, en Time) { got = append(got, span{s, en}) }
	e.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			r1.Use(Duration(i+1)*Microsecond, func(s, en Time) { want = append(want, span{s, en}) })
			r2.UseCall(Duration(i+1)*Microsecond, fn, nil)
		}
	})
	e.Run()
	if len(got) != len(want) || len(got) != 10 {
		t.Fatalf("got %d spans, want %d (and 10)", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("span %d: UseCall %+v, Use %+v", i, got[i], want[i])
		}
	}
	if r1.Served != r2.Served || r1.BusyTotal != r2.BusyTotal || r1.WaitTotal != r2.WaitTotal {
		t.Fatalf("accounting diverged: %+v vs %+v", r1, r2)
	}
}
