package main

// The host this benchmark runs on changes speed in phases that last
// from seconds to minutes, longer than a run: a shared VM's neighbours
// take cache, memory bandwidth and core time, and the process's own CPU
// time grows with its wall time, so neither clock alone can tell a slow
// program from a slow host. The yardstick is a fixed kernel that shares
// no code with the simulator. It runs next to every iteration, and each
// host time the benchmark reports is scaled to the host speed at which
// the yardstick takes yardstickNominal.
//
// The kernel is a binary-heap churn over a preallocated array, like the
// engine's event queue. It allocates nothing, so neither the heap the
// program leaves behind nor the garbage collector can change its time.

import "time"

// yardstickNominal is the reference kernel's time at the nominal host
// speed: about its median on a 2-vCPU Xeon VM.
const yardstickNominal = 0.030

const (
	yardstickPending = 1 << 14 // events held in the heap
	yardstickOps     = 300_000 // pop-and-push operations timed
)

var (
	yardstickHeap = make([]int64, 0, yardstickPending)
	yardstickSink int64
)

// yardstick runs the reference kernel and returns its host seconds.
func yardstick() float64 {
	start := time.Now()
	h := yardstickHeap[:0]
	r := uint64(88172645463325252)
	next := func() int64 { // xorshift64
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return int64(r >> 1)
	}
	push := func(v int64) {
		h = append(h, v)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p] <= h[i] {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() int64 {
		v, n := h[0], len(h)-1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && h[c+1] < h[c] {
				c++
			}
			if h[i] <= h[c] {
				break
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
		return v
	}
	for i := 0; i < yardstickPending; i++ {
		push(next() % 100_000)
	}
	for i := 0; i < yardstickOps; i++ {
		push(pop() + next()%1000)
	}
	yardstickSink += h[0]
	return time.Since(start).Seconds()
}
