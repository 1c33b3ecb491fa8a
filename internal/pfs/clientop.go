package pfs

import (
	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/sim"
)

// clientOp is one file operation (WriteAt, a payload read, WriteZeros or
// ReadDiscard) waiting on its sub-requests. Each sub-request reports
// into it exactly once (subOp.settle). The first error wins, but the
// operation completes only after the last report, like errgroup.Wait, so
// no sub-request outlives it. Records come from the FS's pool, so an
// operation costs no countdown and no completion closure.
type clientOp struct {
	f       *File
	op      device.Op
	phantom bool
	off     int64
	size    int64
	span    obs.SpanID // 0 when untraced
	start   sim.Time
	subs    []layout.SubRequest

	// bufs has one slot per sub-request on payload operations: the write
	// payloads, or the read replies until reassembly. Its capacity
	// survives pooling.
	bufs [][]byte
	out  []byte // a payload read's destination; nil otherwise

	remaining int
	err       error
	done      func(error)         // WriteAt, WriteZeros, ReadDiscard, ReadIntoSpan
	rdone     func([]byte, error) // ReadAt
}

// clientOpPoolCap bounds the operation pool, as subOpPoolCap does.
const clientOpPoolCap = 1 << 8

// startOp opens an operation over [off, off+size): its span, its
// sub-requests, and a pooled record to collect their reports.
func (f *File) startOp(op device.Op, phantom bool, parent obs.SpanID, off, size int64) *clientOp {
	fs := f.client.fs
	c := fs.clientOps.Get()
	c.f, c.op, c.phantom, c.off, c.size = f, op, phantom, off, size
	c.span = f.beginOp(opName(op), parent, off, size)
	c.start = fs.engine.Now()
	c.subs = f.meta.Layout.Map(off, size)
	c.remaining = len(c.subs)
	return c
}

// useBufs gives bufs one empty slot per sub-request.
func (c *clientOp) useBufs() {
	if n := len(c.subs); cap(c.bufs) >= n {
		c.bufs = c.bufs[:n]
	} else {
		c.bufs = make([][]byte, n)
	}
}

// launch issues every sub-request under the client's policy (retry.go).
func (c *clientOp) launch() {
	fs := c.f.client.fs
	for i, sub := range c.subs {
		o := fs.subs.Get()
		o.f, o.op, o.phantom, o.parent = c.f, c.op, c.phantom, c.span
		o.sub, o.cop, o.idx = sub, c, i
		if c.op == device.Write && !c.phantom {
			o.payload = c.bufs[i]
		}
		o.run()
	}
}

// report records sub-request i's final outcome; the last report
// completes the operation.
func (c *clientOp) report(i int, data []byte, err error) {
	switch {
	case err != nil:
		if c.err == nil {
			c.err = err
		}
	case data != nil:
		c.bufs[i] = data
	}
	if c.remaining--; c.remaining == 0 {
		c.complete()
	}
}

// complete closes the operation: span and metrics, read reassembly into
// the destination, EOF advance on a successful write, then the caller's
// continuation. The record is recycled before the continuation runs,
// which may start new operations that reuse it: every pointer is
// nilled, the buffer slots included, so a pooled record retains no
// payload or continuation, but the slots' capacity survives.
func (c *clientOp) complete() {
	f, err := c.f, c.err
	f.endOp(c, err)
	if c.out != nil && err == nil {
		layout.Fragments(f.meta.Layout, c.subs, c.off, c.size, func(i int, at, pos, n int64) {
			copy(c.out[pos-c.off:pos-c.off+n], c.bufs[i][at:at+n])
		})
	}
	done, rdone, out := c.done, c.rdone, c.out
	write, eof := c.op == device.Write, c.off+c.size
	bufs := c.bufs
	clear(bufs)
	*c = clientOp{bufs: bufs[:0]}
	f.client.fs.clientOps.Put(c)
	switch {
	case rdone != nil && err != nil:
		rdone(nil, err)
	case rdone != nil:
		rdone(out, nil)
	case write && err == nil:
		// The EOF advances only on full success, so an acknowledged write
		// is exactly a committed write.
		if eof > f.meta.Size {
			f.meta.Size = eof
		}
		done(nil)
	default:
		done(err)
	}
}

// opName names an operation's span and metrics.
func opName(op device.Op) string {
	if op == device.Write {
		return "pfs.write"
	}
	return "pfs.read"
}

// beginOp opens a client-operation span; 0 when tracing is off. The
// tracer copies the tags, so they are built on the stack.
func (f *File) beginOp(name string, parent obs.SpanID, off, size int64) obs.SpanID {
	tr := f.client.fs.tracer
	if tr == nil {
		return 0
	}
	var buf [8]obs.Tag
	tags := append(buf[:0], obs.T("file", f.meta.Name), obs.TInt("off", off), obs.TInt("bytes", size))
	tags = append(tags, f.spanTags...)
	return tr.Begin(f.client.name, name, parent, tags...)
}

// opInstruments are one op kind's pfs_op_* instruments.
type opInstruments struct {
	seconds *obs.Histogram
	total   *obs.Counter
	bytes   *obs.Counter
}

// endOp closes an operation's span and feeds the op-latency histogram.
// Both are no-ops when uninstrumented.
func (f *File) endOp(c *clientOp, err error) {
	fs := f.client.fs
	if tr := fs.tracer; tr != nil {
		tr.End(c.span, obs.T("status", errStatus(err)))
	}
	if reg := fs.metrics; reg != nil {
		m := fs.opMetrics[c.op]
		if m == nil {
			label := obs.T("op", opName(c.op))
			m = &opInstruments{
				seconds: reg.Histogram("pfs_op_seconds", 0, 2, 80, label),
				total:   reg.Counter("pfs_op_total", label),
				bytes:   reg.Counter("pfs_op_bytes_total", label),
			}
			fs.opMetrics[c.op] = m
		}
		m.seconds.Observe(fs.engine.Now().Sub(c.start).Seconds())
		m.total.Inc()
		m.bytes.Add(c.size)
	}
}
