package sim

import "testing"

// BenchmarkEngineEventThroughput measures raw event dispatch rate — the
// budget every simulated component spends from.
func BenchmarkEngineEventThroughput(b *testing.B) {
	e := NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.Schedule(Microsecond, tick)
		}
	}
	b.ResetTimer()
	e.Schedule(0, tick)
	e.Run()
}

// BenchmarkEngineHeapChurn stresses the event queue with out-of-order
// scheduling, the pattern striped I/O produces.
func BenchmarkEngineHeapChurn(b *testing.B) {
	e := NewEngine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.Pending() < 1024 {
			jitter := Duration(e.Rand().Int63n(int64(Millisecond)))
			e.Schedule(jitter, func() {})
		} else {
			e.RunUntil(e.Now().Add(10 * Microsecond))
		}
	}
	e.Run()
}

// BenchmarkResourceUse measures the FIFO queue's reservation cost.
func BenchmarkResourceUse(b *testing.B) {
	e := NewEngine(1)
	r := NewResource(e, "disk", 1)
	b.ResetTimer()
	e.Schedule(0, func() {
		for i := 0; i < b.N; i++ {
			r.Use(Microsecond, nil)
		}
	})
	e.Run()
}
