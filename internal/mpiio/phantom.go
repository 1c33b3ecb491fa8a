package mpiio

import (
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/obs"
	"harl/internal/pfs"
)

// PhantomFile extends File with payload-free operations for
// benchmark-scale workloads (see package pfs's phantom I/O). All three
// file implementations satisfy it.
type PhantomFile interface {
	File
	// WriteZeros is WriteAt with a logical all-zero payload of the given
	// size, allocating nothing.
	WriteZeros(rank int, off, size int64, done func(error))
	// ReadDiscard is ReadAt without materializing the data.
	ReadDiscard(rank int, off, size int64, done func(error))
}

// WriteZeros implements PhantomFile.
func (f *PlainFile) WriteZeros(rank int, off, size int64, done func(error)) {
	f.handles[rank].WriteZeros(off, size, done)
}

// ReadDiscard implements PhantomFile.
func (f *PlainFile) ReadDiscard(rank int, off, size int64, done func(error)) {
	f.handles[rank].ReadDiscard(off, size, done)
}

// WriteZeros implements PhantomFile, splitting at region boundaries.
func (f *HARLFile) WriteZeros(rank int, off, size int64, done func(error)) {
	fanOut(f, device.Write, rank, off, size, done, callDone, func(h *pfs.File, parent obs.SpanID, sp harl.Piece, _ int64, done func(error)) {
		h.WriteZerosSpan(parent, sp.Local, sp.Length, done)
	})
}

// ReadDiscard implements PhantomFile, splitting at region boundaries.
func (f *HARLFile) ReadDiscard(rank int, off, size int64, done func(error)) {
	fanOut(f, device.Read, rank, off, size, done, callDone, func(h *pfs.File, parent obs.SpanID, sp harl.Piece, _ int64, done func(error)) {
		h.ReadDiscardSpan(parent, sp.Local, sp.Length, done)
	})
}

// WriteZeros implements PhantomFile, recording the request like WriteAt.
func (f *TracingFile) WriteZeros(rank int, off, size int64, done func(error)) {
	inner, ok := f.inner.(PhantomFile)
	if !ok {
		panic("mpiio: traced file does not support phantom I/O")
	}
	start := f.engine.Now()
	inner.WriteZeros(rank, off, size, func(err error) {
		f.record(rank, device.Write, off, size, start)
		done(err)
	})
}

// ReadDiscard implements PhantomFile, recording the request like ReadAt.
func (f *TracingFile) ReadDiscard(rank int, off, size int64, done func(error)) {
	inner, ok := f.inner.(PhantomFile)
	if !ok {
		panic("mpiio: traced file does not support phantom I/O")
	}
	start := f.engine.Now()
	inner.ReadDiscard(rank, off, size, func(err error) {
		f.record(rank, device.Read, off, size, start)
		done(err)
	})
}
