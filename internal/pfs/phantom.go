package pfs

import (
	"harl/internal/device"
	"harl/internal/obs"
)

// Phantom I/O: benchmark-scale operations that move simulated time and
// queue load but no payload bytes. A 16 GB IOR run would otherwise
// allocate 16 GB of backing pages; WriteZeros and ReadDiscard give the
// exact same timing behaviour (striping, network, disk service) while the
// sparse stores stay empty — logically, the file holds zeros, which is
// also exactly what a read of the untouched ranges returns. Phantom ops
// run under the same recovery policy as their payload-carrying twins:
// deadlines, retries and hedged reads all apply.

// WriteZeros behaves like WriteAt with a size-long all-zero buffer but
// allocates and stores nothing.
func (f *File) WriteZeros(off, size int64, done func(error)) {
	f.WriteZerosSpan(0, off, size, done)
}

// WriteZerosSpan is WriteZeros under a parent span.
func (f *File) WriteZerosSpan(parent obs.SpanID, off, size int64, done func(error)) {
	if size == 0 {
		f.client.fs.engine.Schedule(0, func() { done(nil) })
		return
	}
	c := f.startOp(device.Write, true, parent, off, size)
	c.done = done
	c.launch()
}

// ReadDiscard behaves like ReadAt but never materializes the data.
func (f *File) ReadDiscard(off, size int64, done func(error)) {
	f.ReadDiscardSpan(0, off, size, done)
}

// ReadDiscardSpan is ReadDiscard under a parent span.
func (f *File) ReadDiscardSpan(parent obs.SpanID, off, size int64, done func(error)) {
	if size == 0 {
		f.client.fs.engine.Schedule(0, func() { done(nil) })
		return
	}
	c := f.startOp(device.Read, true, parent, off, size)
	c.done = done
	c.launch()
}

// servePhantom runs a sub-request through the disk queue without touching
// the object store; fn(arg, nil, err) fires at completion. It shares
// serve's fault semantics: crashed servers swallow the request, flaky
// servers may drop it or reply with a transient error.
func (s *Server) servePhantom(op device.Op, local, size int64, parent obs.SpanID, fn func(arg any, data []byte, err error), arg any) {
	epoch, ok := s.admit()
	if !ok {
		return
	}
	service := s.scale(s.Dev.ServiceTime(op, local, size, s.fs.engine.Rand()))
	o := s.fs.allocOp()
	o.s, o.op, o.local, o.size, o.phantom = s, op, local, size, true
	o.parent, o.submit, o.epoch, o.fn, o.arg = parent, s.fs.engine.Now(), epoch, fn, arg
	s.enqueue()
	s.disk.UseCall(service, diskOpDone, o)
}
