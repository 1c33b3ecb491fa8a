package netsim

import (
	"harl/internal/obs"
	"harl/internal/sim"
)

// xfer carries one transfer's state from submission to last-byte
// arrival. Records come from the Network's pool and are completed
// through the package-level xferDone, which hands the arrival time to
// the caller's fn with its arg; with a package-level fn and a pooled arg
// the wire hot path allocates nothing when tracing is off.
type xfer struct {
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

// xferPoolCap bounds the transfer pool (see sim.Pool).
const xferPoolCap = 1 << 12

// PoolStats reports the transfer pool's Stats: its current size, its
// high-water mark, and how many records were dropped at the cap.
func (n *Network) PoolStats() (pooled, highWater int, drops uint64) {
	return n.xfers.Stats()
}

// xferDone completes every transfer: emit the xfer span (if traced),
// reset and recycle the record, then hand the arrival time to the
// caller. end is the receive lane's release time for wire transfers and
// the fire time for loopback.
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
	if ss := n.sketches; ss != nil {
		if x.to.sketchID < 0 {
			x.to.sketchID = ss.NetIndex(x.to.name)
		}
		ss.ObserveNet(x.to.sketchID, end.Sub(x.submit), x.size)
	}
	*x = xfer{}
	n.xfers.Put(x)
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
