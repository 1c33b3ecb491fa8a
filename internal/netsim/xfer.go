package netsim

import (
	"harl/internal/obs"
	"harl/internal/sim"
)

// xfer carries one transfer's state from submission to last-byte
// arrival. Records are pooled on the Network free list and completed
// through the package-level xferDone, which hands the arrival time to
// the caller's fn with its arg; with a package-level fn and a pooled arg
// the wire hot path allocates nothing when tracing is off.
type xfer struct {
	next     *xfer
	n        *Network
	parent   obs.SpanID
	from     *Node
	to       *Node
	size     int64
	submit   sim.Time
	txStart  sim.Time
	loopback bool
	fn       func(arg any, at sim.Time)
	arg      any
}

// xferPoolCap bounds the free list; see the event-pool rationale in
// internal/sim.
const xferPoolCap = 1 << 12

func (n *Network) allocXfer() *xfer {
	if x := n.freeXfers; x != nil {
		n.freeXfers = x.next
		n.xfersPooled--
		x.next = nil
		return x
	}
	return &xfer{}
}

func (n *Network) recycleXfer(x *xfer) {
	*x = xfer{}
	if n.xfersPooled >= xferPoolCap {
		return
	}
	x.next = n.freeXfers
	n.freeXfers = x
	n.xfersPooled++
}

// xferDone completes every transfer: emit the xfer span (if traced),
// recycle the record, then hand the arrival time to the caller. end is
// the receive lane's release time for wire transfers and the fire time
// for loopback.
func xferDone(arg any, _, end sim.Time) {
	x := arg.(*xfer)
	n, fn, farg := x.n, x.fn, x.arg
	if tr := n.tracer; tr != nil {
		if x.loopback {
			tr.Emit(x.to.track, "xfer", x.parent, x.submit, end,
				obs.T("src", x.from.name), obs.T("dst", x.to.name),
				obs.TInt("bytes", x.size), obs.T("loopback", "1"))
		} else {
			tr.Emit(x.to.track, "xfer", x.parent, x.submit, end,
				obs.T("src", x.from.name), obs.T("dst", x.to.name),
				obs.TInt("bytes", x.size),
				obs.TInt("tx_wait_ns", int64(x.txStart.Sub(x.submit))))
		}
	}
	// Feed the sketch layer before recycling clears the record.
	n.sketches.ObserveNet(x.to.name, end.Sub(x.submit), x.size)
	n.recycleXfer(x)
	if fn != nil {
		fn(farg, n.engine.Now())
	}
}

// callDone is the completion of closure-style transfers: the caller's
// func(at) rides as the arg.
func callDone(arg any, at sim.Time) {
	if done := arg.(func(at sim.Time)); done != nil {
		done(at)
	}
}
