package main

import (
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/sim"
)

// request is one logical file request, kept for the layout replay.
type request struct{ off, size int64 }

// recorder measures every file request a workload issues: virtual
// latency, outcome and acked bytes. It only reads the virtual clock, so
// a recorded run executes the exact event sequence of a bare one.
type recorder struct {
	engine      *sim.Engine
	latMs       []float64 // virtual latency of each completed request
	issued      int64     // bytes of every request begun
	acked       int64     // bytes of requests that completed without error
	failedBytes int64     // bytes of requests that completed with an error
	attempted   int
	failed      int
	maxEnd      int64     // highest byte offset requested
	reqs        []request // nil unless keepReqs
	keepReqs    bool
}

// begin notes a request and returns its issue time.
func (r *recorder) begin(off, size int64) sim.Time {
	r.attempted++
	r.issued += size
	r.maxEnd = max(r.maxEnd, off+size)
	if r.keepReqs {
		r.reqs = append(r.reqs, request{off, size})
	}
	return r.engine.Now()
}

// end records a request's completion.
func (r *recorder) end(start sim.Time, size int64, err error) {
	if err != nil {
		r.failed++
		r.failedBytes += size
		return
	}
	r.acked += size
	r.latMs = append(r.latMs, float64(r.engine.Now().Sub(start))/float64(sim.Millisecond))
}

// timedFile wraps the file handed to ior.Run, ior.RunMulti and btio.Run
// so each request's virtual latency is recorded. It implements both
// mpiio.File and mpiio.PhantomFile.
type timedFile struct {
	mpiio.PhantomFile
	rec *recorder
}

func (f timedFile) WriteAt(rank int, off int64, data []byte, done func(error)) {
	size := int64(len(data))
	t := f.rec.begin(off, size)
	f.PhantomFile.WriteAt(rank, off, data, func(err error) {
		f.rec.end(t, size, err)
		done(err)
	})
}

func (f timedFile) ReadAt(rank int, off, size int64, done func([]byte, error)) {
	t := f.rec.begin(off, size)
	f.PhantomFile.ReadAt(rank, off, size, func(data []byte, err error) {
		f.rec.end(t, size, err)
		done(data, err)
	})
}

func (f timedFile) WriteZeros(rank int, off, size int64, done func(error)) {
	t := f.rec.begin(off, size)
	f.PhantomFile.WriteZeros(rank, off, size, func(err error) {
		f.rec.end(t, size, err)
		done(err)
	})
}

func (f timedFile) ReadDiscard(rank int, off, size int64, done func(error)) {
	t := f.rec.begin(off, size)
	f.PhantomFile.ReadDiscard(rank, off, size, func(err error) {
		f.rec.end(t, size, err)
		done(err)
	})
}

// countingMapper forwards to a file layout and counts the Map calls the
// file system makes inside the engine. The traced scale_huge iteration
// creates its file with one, and the gate checks that the layout replay
// makes exactly as many calls.
type countingMapper struct {
	layout.Mapper
	calls int64
}

func (m *countingMapper) Map(off, size int64) []layout.SubRequest {
	m.calls++
	return m.Mapper.Map(off, size)
}
