package pfs

import (
	"harl/internal/device"
	"harl/internal/obs"
	"harl/internal/sim"
)

// diskOp carries one sub-request's state from admission to disk
// completion. Records are pooled on the FS free list and dispatched
// through the package-level diskOpDone, so the per-sub-request hot path
// — the dominant allocation site in large runs — allocates nothing. The
// caller's continuation is fn(arg, data, err): with a package-level fn
// and a pooled arg (the client's subLeg) it costs no closure either.
type diskOp struct {
	next    *diskOp
	s       *Server
	op      device.Op
	fileID  uint64
	local   int64
	data    []byte
	size    int64
	phantom bool // move no bytes: the object store is never touched
	parent  obs.SpanID
	submit  sim.Time
	epoch   uint64
	fn      func(arg any, data []byte, err error)
	arg     any
}

// diskOpPoolCap bounds the FS-wide diskOp free list; completions beyond
// the cap drop their record to the garbage collector so a burst's peak
// in-flight population is not pinned for the rest of the run.
const diskOpPoolCap = 1 << 12

func (fs *FS) allocOp() *diskOp {
	if o := fs.freeOps; o != nil {
		fs.freeOps = o.next
		fs.opsPooled--
		o.next = nil
		return o
	}
	return &diskOp{}
}

// recycleOp returns a completed record to the pool with every pointer
// field nilled, so pooled records never retain payload buffers or
// continuations.
func (fs *FS) recycleOp(o *diskOp) {
	*o = diskOp{}
	if fs.opsPooled >= diskOpPoolCap {
		return
	}
	o.next = fs.freeOps
	fs.freeOps = o
	fs.opsPooled++
}

// diskOpDone is the single completion callback for every disk
// sub-request. The record is recycled as soon as its fields are copied
// out — before the object store is touched or the caller's continuation
// runs, either of which may issue new sub-requests that reuse it.
func diskOpDone(arg any, start, end sim.Time) {
	o := arg.(*diskOp)
	s, op, fileID, local := o.s, o.op, o.fileID, o.local
	data, size, epoch, phantom := o.data, o.size, o.epoch, o.phantom
	fn, farg := o.fn, o.arg
	s.observeDisk(op, o.parent, o.submit, start, end, size)
	s.fs.recycleOp(o)
	err, ok := s.deliver(epoch)
	if !ok {
		return
	}
	if phantom || err != nil {
		fn(farg, nil, err)
		return
	}
	obj := s.object(fileID)
	if op == device.Write {
		before := obj.Bytes()
		obj.WriteAt(data, local)
		s.stored += obj.Bytes() - before
		fn(farg, nil, nil)
		return
	}
	buf := make([]byte, size)
	obj.ReadAt(buf, local)
	fn(farg, buf, nil)
}

// errDone adapts a func(error) continuation, riding as the arg, to the
// disk-op completion shape; the replication protocol's server-side
// steps still pass closures.
func errDone(arg any, _ []byte, err error) { arg.(func(error))(err) }
