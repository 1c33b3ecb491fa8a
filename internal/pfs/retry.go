package pfs

import (
	"errors"
	"fmt"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/sim"
)

// Client-side failure recovery: per-sub-request deadlines, bounded retry
// with exponential backoff and jitter, and hedged reads. Everything runs
// on virtual-clock timers, and the zero-value Policy reproduces the
// legacy fault-free protocol event for event — no timers are armed and no
// extra randomness is drawn, so fault-free runs stay bit-identical.
//
// Timers are not cancelled when an attempt resolves early; the losers
// fire as no-ops. A drained engine's clock can therefore sit at the last
// armed deadline, so latency measurements must bracket operations with
// callbacks rather than read the clock after Run returns.

// Policy configures a client's recovery behaviour. Fields at their zero
// value disable the corresponding mechanism.
type Policy struct {
	// Timeout is the per-sub-request deadline. When it expires before the
	// server replies the attempt fails with ErrTimeout (and may retry).
	// 0 disables deadlines: a crashed server then hangs the operation.
	Timeout sim.Duration

	// MaxRetries bounds how many times one sub-request is re-issued after
	// a retryable error (timeout or transient I/O error).
	MaxRetries int

	// Backoff is the base delay before the first retry; each further
	// retry doubles it, with ±50% jitter drawn from the engine RNG.
	// 0 retries immediately.
	Backoff sim.Duration

	// HedgeAfter re-issues a read sub-request that has not completed
	// after this long and takes whichever copy finishes first — the
	// classic tail-latency cut for straggling or request-dropping
	// servers. 0 disables hedging. Writes are never hedged; their
	// duplicate would double-commit queue load for no integrity benefit
	// (retries already make writes idempotent).
	HedgeAfter sim.Duration

	// FailFast makes Open and Create refuse files whose layout stores
	// data on a server the MDS considers Down, returning *DegradedError
	// instead of a handle that would stall until recovery.
	FailFast bool
}

// subOp is one attempt at one striped sub-request: the primary wire
// exchange, an optional hedge for reads, and a deadline timer. The first
// of the three to produce an outcome resolves the attempt; the losers
// find resolved set and fall silent. A retry hands the sub-request to a
// fresh record, so a late callback of an earlier attempt only ever sees
// its own, resolved, record.
//
// Records are pooled on the FS, and every step (request leg, service
// completion, reply leg, hedge timer, deadline timer, retry backoff) is
// dispatched through a package-level function with the record or one of
// its legs as the arg, so a sub-request costs no closure. Timers are
// never cancelled, so a record goes back to the pool only when pending,
// its legs in flight plus its armed timers, drops to zero. A leg whose
// request or reply a server swallows never comes back; its record is
// left to the garbage collector.
type subOp struct {
	f       *File
	op      device.Op
	phantom bool
	parent  obs.SpanID // enclosing operation's span; 0 when untraced
	sub     layout.SubRequest
	payload []byte // write payload; nil for reads and phantom ops

	// cop receives the sub-request's single report, as entry idx. It is
	// nil once reported or handed on to a retry.
	cop *clientOp
	idx int

	attempt  int
	server   *Server    // the server the attempt is charged to
	span     obs.SpanID // the attempt's span; 0 when untraced
	start    sim.Time
	resolved bool
	pending  int
	legs     [2]subLeg // the primary exchange, then the hedge
}

// subLeg is one wire exchange of an attempt: request out, service at
// target, reply back. data and err ride the reply transfer.
type subLeg struct {
	o      *subOp
	hedge  bool
	target *Server
	data   []byte
	err    error
}

// subOpPoolCap bounds the sub-op pool, as diskOpPoolCap does. The
// pool only has to absorb swings in the in-flight population, not hold
// all of it, so the cap sits below ScaleHuge's ~1.3K concurrent
// sub-requests and keeps the pooled records' share of the live heap
// small.
const subOpPoolCap = 1 << 9

// arm schedules one of the attempt's timers.
func (o *subOp) arm(delay sim.Duration, fn func(arg any, start, end sim.Time)) {
	o.pending++
	o.f.client.fs.engine.ScheduleCall(delay, fn, o)
}

// release retires one outstanding callback; the last one resets and
// recycles the record. Callbacks call it after their own work, so the
// record is never pooled while a step still runs on it.
func (o *subOp) release() {
	if o.pending--; o.pending == 0 {
		fs := o.f.client.fs
		*o = subOp{}
		fs.subs.Put(o)
	}
}

// run launches the attempt. With the zero policy this is exactly the
// legacy wire protocol: request out, service, reply back, report. Each
// attempt records a child span of the operation when tracing is on.
func (o *subOp) run() {
	fs := o.f.client.fs
	var rg *replGroup
	if rs := o.f.meta.Repl; rs != nil {
		// A replicated slot is served by its current serving replica,
		// wherever the view moved it (repl.go).
		rg = rs.groups[o.sub.Server]
		sid, ok := rg.g.Serving()
		if !ok {
			o.bounce(rg)
			return
		}
		o.server = fs.servers[sid]
	} else {
		o.server = fs.servers[o.sub.Server]
	}
	o.start = fs.engine.Now()
	o.span = o.beginAttempt(rg)
	o.exchange(0, o.server)
	p := o.f.client.Policy
	if o.op == device.Read && p.HedgeAfter > 0 {
		o.arm(p.HedgeAfter, hedgeFired)
	}
	if p.Timeout > 0 {
		o.arm(p.Timeout, deadlineFired)
	}
}

// beginAttempt opens the attempt's span, tagged with the replica group's
// coordinates on replicated files; 0 when tracing is off.
func (o *subOp) beginAttempt(rg *replGroup) obs.SpanID {
	c := o.f.client
	tr := c.fs.tracer
	if tr == nil {
		return 0
	}
	var buf [6]obs.Tag
	tags := append(buf[:0], obs.T("op", o.op.String()), obs.T("server", o.server.Name),
		obs.TInt("attempt", int64(o.attempt)), obs.TInt("bytes", o.sub.Size))
	if rg != nil {
		tags = append(tags, obs.TInt("group", int64(o.sub.Server)), obs.TInt("view", int64(rg.g.View())))
	}
	return tr.Begin(c.name, "attempt", o.parent, tags...)
}

// bounce fails an attempt on a replicated slot that has no eligible
// serving replica, as a retryable error after a fixed pause, so even
// zero-backoff policies let the clock reach the view change or catch-up
// that restores service. The bounce still records an attempt span: a
// group blackout must be visible to the availability SLO and the flight
// recorder, not just to the retry counters.
func (o *subOp) bounce(rg *replGroup) {
	fs := o.f.client.fs
	fs.Repl.Unavailable++
	o.server = fs.servers[o.sub.Server]
	o.span = o.beginAttempt(rg)
	o.arm(replUnavailDelay, bounceFired)
}

// exchange starts leg i (0 the primary, 1 the hedge) against target. A
// request the server drops simply never calls back; the deadline timer
// is then the only way the attempt resolves.
func (o *subOp) exchange(i int, target *Server) {
	l := &o.legs[i]
	l.o, l.hedge, l.target = o, i == 1, target
	o.pending++
	var out int64
	if o.op == device.Write {
		out = o.sub.Size
	}
	c := o.f.client
	c.fs.net.TransferCall(o.span, c.node, target.node, out, legLanded, l)
}

// legLanded serves a request that reached its target: the replication
// protocol on replicated files, a disk pass through the target's
// datafile otherwise.
func legLanded(arg any, _ sim.Time) {
	l := arg.(*subLeg)
	o := l.o
	switch fs := o.f.client.fs; {
	case o.f.meta.Repl != nil:
		reply := func(data []byte, err error) { legServed(l, data, err) }
		if o.op == device.Write {
			fs.beginReplWrite(o.f.meta, o.sub.Server, l.target, o.sub.Local, o.payload, o.sub.Size, o.span, reply)
		} else {
			fs.replRead(o.f.meta, o.sub.Server, l.target, o.sub.Local, o.sub.Size, o.phantom, o.span, reply)
		}
	default:
		l.target.serve(o.op, o.sub.Local, o.sub.Size, o.span, legDisk, l)
	}
}

// legDisk completes an unreplicated sub-request's disk pass: unless the
// pass failed or the op is phantom, it moves the payload through the
// datafile — the slot's store on the target, which owns the slot — and
// then sends the reply.
func legDisk(arg any, err error) {
	l := arg.(*subLeg)
	o := l.o
	var data []byte
	if err == nil && !o.phantom {
		if o.op == device.Write {
			l.target.writeSlot(o.f.meta.ID, o.sub.Server, o.payload, o.sub.Local)
		} else {
			data = l.target.readSlot(o.f.meta.ID, o.sub.Server, o.sub.Local, o.sub.Size)
		}
	}
	legServed(l, data, err)
}

// legServed sends the service outcome back to the client. Read replies
// carry the payload; error replies carry none.
func legServed(arg any, data []byte, err error) {
	l := arg.(*subLeg)
	o := l.o
	c := o.f.client
	var back int64
	if o.op != device.Write && err == nil {
		back = o.sub.Size
	}
	l.data, l.err = data, err
	c.fs.net.TransferCall(o.span, l.target.node, c.node, back, legReplied, l)
}

func legReplied(arg any, _ sim.Time) {
	l := arg.(*subLeg)
	o := l.o
	data, err := l.data, l.err
	l.data, l.err = nil, nil
	o.resolve(l.hedge, data, err)
	o.release()
}

// hedgeFired re-issues a read that is still outstanding. Replication
// gives the hedge somewhere better to go than the same straggling
// server: an eligible backup holds every acked byte and can serve the
// read itself.
func hedgeFired(arg any, _, _ sim.Time) {
	o := arg.(*subOp)
	if !o.resolved {
		fs := o.f.client.fs
		fs.Faults.Hedges++
		target := o.server
		if rs := o.f.meta.Repl; rs != nil {
			if alt, ok := rs.groups[o.sub.Server].g.AlternateFor(o.server.ID); ok {
				target = fs.servers[alt]
			}
		}
		if tr := fs.tracer; tr != nil {
			tr.Instant(o.f.client.name, "hedge", o.span, obs.T("server", target.Name))
		}
		o.exchange(1, target)
	}
	o.release()
}

func deadlineFired(arg any, _, _ sim.Time) {
	o := arg.(*subOp)
	if !o.resolved {
		o.resolve(false, nil, fmt.Errorf("%w: server %s", ErrTimeout, o.server.Name))
	}
	o.release()
}

func bounceFired(arg any, _, _ sim.Time) {
	o := arg.(*subOp)
	slot := o.sub.Server
	o.resolve(false, nil, fmt.Errorf("%w: slot %d view %d", ErrUnavailable, slot, o.f.meta.Repl.groups[slot].g.View()))
	o.release()
}

func retryFired(arg any, _, _ sim.Time) {
	o := arg.(*subOp)
	o.run()
	o.release()
}

// resolve takes the attempt's first outcome; later ones are dropped.
func (o *subOp) resolve(hedge bool, data []byte, err error) {
	if o.resolved {
		return
	}
	o.resolved = true
	fs := o.f.client.fs
	if hedge {
		fs.Faults.HedgeWins++
	}
	if tr := fs.tracer; tr != nil {
		tr.End(o.span, obs.T("outcome", attemptOutcome(hedge, err)))
	}
	if err == nil && o.f.meta.Repl == nil {
		// Successful sub-request: attribute client-observed latency and
		// bytes to the handle's layout region for the skew heatmap.
		fs.sketches.ObserveRegion(o.f.region, o.sub.Server,
			o.sub.Size, fs.engine.Now().Sub(o.start))
	}
	o.outcome(data, err)
}

// outcome handles the attempt's result: success clears Suspect, a
// retryable failure re-runs after backoff while budget remains, and
// anything else settles the sub-request with an error.
func (o *subOp) outcome(data []byte, err error) {
	fs := o.f.client.fs
	if err == nil {
		fs.markHealthy(o.server.ID)
		o.settle(data, nil)
		return
	}
	if errors.Is(err, ErrTimeout) {
		fs.Faults.Timeouts++
		fs.markSuspect(o.server.ID)
	}
	p := o.f.client.Policy
	if o.attempt < p.MaxRetries && Retryable(err) {
		next := fs.subs.Get()
		*next = subOp{f: o.f, op: o.op, phantom: o.phantom, parent: o.parent, sub: o.sub,
			payload: o.payload, cop: o.cop, idx: o.idx, attempt: o.attempt + 1}
		o.cop = nil
		fs.Faults.Retries++
		if tr := fs.tracer; tr != nil {
			tr.Instant(o.f.client.name, "retry", o.parent,
				obs.T("server", o.server.Name), obs.TInt("attempt", int64(next.attempt)))
		}
		next.arm(next.backoff(p), retryFired)
		return
	}
	if p.MaxRetries > 0 {
		err = fmt.Errorf("%w: %w", ErrRetriesExhausted, err)
	}
	o.settle(nil, err)
}

// settle reports the sub-request's final outcome to its operation.
func (o *subOp) settle(data []byte, err error) {
	c := o.cop
	o.cop = nil
	c.report(o.idx, data, err)
}

// attemptOutcome renders an attempt's result for the span's outcome tag.
func attemptOutcome(hedge bool, err error) string {
	switch {
	case err == nil && hedge:
		return "hedge-win"
	case err == nil:
		return "ok"
	case errors.Is(err, ErrTimeout):
		return "timeout"
	default:
		return "error"
	}
}

// backoff returns the delay before attempt n (1-based): Backoff doubled
// per retry with ±50% jitter. The RNG is touched only here, so runs
// without faults draw exactly the randomness they always did.
func (o *subOp) backoff(p Policy) sim.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	exp := o.attempt - 1
	if exp > 16 {
		exp = 16 // cap the doubling well below overflow
	}
	base := p.Backoff << uint(exp)
	jitter := 0.5 + o.f.client.fs.engine.Rand().Float64() // [0.5, 1.5)
	return sim.Duration(float64(base) * jitter)
}
