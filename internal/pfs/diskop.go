package pfs

import (
	"harl/internal/device"
	"harl/internal/obs"
	"harl/internal/sim"
)

// diskOp carries one sub-request's disk pass from admission to
// completion. Records come from the FS's pool and are dispatched
// through the package-level diskOpDone, so the per-sub-request hot path
// — the dominant allocation site in large runs — allocates nothing. The
// caller's continuation is fn(arg, err): with a package-level fn and a
// pooled arg (the client's subLeg) it costs no closure either.
type diskOp struct {
	s      *Server
	op     device.Op
	local  int64
	size   int64
	parent obs.SpanID
	submit sim.Time
	epoch  uint64
	fn     func(arg any, err error)
	arg    any
}

// diskOpPoolCap bounds the FS-wide diskOp pool (see sim.Pool).
const diskOpPoolCap = 1 << 12

// diskOpDone is the single completion callback for every disk pass. The
// record is reset, every pointer nilled, and recycled as soon as its
// fields are copied out — before the caller's continuation runs, which
// may issue new sub-requests that reuse it. A delivered pass hands fn
// the fault outcome; a dropped one never calls back.
func diskOpDone(arg any, start, end sim.Time) {
	o := arg.(*diskOp)
	s, epoch, fn, farg := o.s, o.epoch, o.fn, o.arg
	s.observeDisk(o.op, o.parent, o.submit, start, end, o.size)
	*o = diskOp{}
	s.fs.ops.Put(o)
	if err, ok := s.deliver(epoch); ok {
		fn(farg, err)
	}
}

// errDone adapts a func(error) continuation, riding as the arg, to the
// disk-op completion shape; the replication protocol's server-side
// steps still pass closures.
func errDone(arg any, err error) { arg.(func(error))(err) }
