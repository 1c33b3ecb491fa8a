package pfs

import (
	"errors"
	"fmt"
	"strconv"

	"harl/internal/device"
	"harl/internal/layout"
	"harl/internal/obs"
	"harl/internal/sim"
)

// Fault injection and recovery. Data servers can crash (drop every
// request until recovery), be flaky (reject or silently swallow a random
// fraction of requests) and straggle (scale service times); the MDS
// tracks per-server health so clients can fail fast or create degraded
// layouts. All fault state changes happen on the virtual clock, so a
// chaos run replays bit-identically from its seed.

// Sentinel errors surfaced by the fault and recovery machinery.
var (
	// ErrTimeout reports a sub-request whose deadline expired before the
	// server replied — a crashed, stalled or swamped server.
	ErrTimeout = errors.New("pfs: request deadline exceeded")
	// ErrFlaky reports a transient I/O error reply from a flaky server.
	ErrFlaky = errors.New("pfs: transient I/O error")
	// ErrRetriesExhausted wraps the last attempt's error once the retry
	// budget is spent.
	ErrRetriesExhausted = errors.New("pfs: retries exhausted")
	// ErrUnavailable reports a replicated region whose replica group has
	// no eligible serving replica — every copy crashed, or the survivors
	// are still catching up. Retryable: a view change or log replay on the
	// virtual clock can restore service.
	ErrUnavailable = errors.New("pfs: replica group unavailable")
)

// DegradedError reports that an operation touched servers the MDS
// considers down. Open/Create return it when the client policy is
// fail-fast and the file's layout stores data on a down server.
type DegradedError struct {
	Name    string
	Servers []int
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("pfs: file %q is degraded: servers %v down", e.Name, e.Servers)
}

// Retryable reports whether a sub-request error is transient — worth
// retrying on the same server after a backoff.
func Retryable(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, ErrFlaky) || errors.Is(err, ErrUnavailable)
}

// Health is the MDS's view of one data server. Fault events move servers
// between Down and Healthy; client-side timeouts demote Healthy servers
// to Suspect, and the next successful reply promotes them back.
type Health int

// Health states.
const (
	Healthy Health = iota
	Suspect
	Down
)

// String returns "healthy", "suspect" or "down".
func (h Health) String() string {
	switch h {
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "healthy"
}

// FaultStats aggregates the recovery machinery's counters across all
// clients and servers of one file system. The chaos experiments report
// them; a differential test checks they replay identically from a seed.
type FaultStats struct {
	Crashes    uint64 // Crash events applied
	Recoveries uint64 // Recover events applied
	Dropped    uint64 // requests swallowed by crashed or flaky servers
	FlakyErrs  uint64 // transient error replies sent
	Timeouts   uint64 // client deadlines expired
	Retries    uint64 // sub-request retry attempts issued
	Hedges     uint64 // hedge sub-requests issued
	HedgeWins  uint64 // hedges that completed before their primary
	FailFasts  uint64 // Open/Create rejected on degraded layouts
}

// Crash takes a data server down: every request in flight or arriving
// before Recover is dropped without a reply, as a killed server process
// would. The MDS marks the server Down immediately, modeling a missed
// heartbeat on the simulation's timescale.
func (fs *FS) Crash(server int) {
	s := fs.server(server)
	if s.down {
		return
	}
	s.down = true
	s.epoch++
	fs.health[s.ID] = Down
	fs.Faults.Crashes++
	fs.annotate(s, "fault.crash")
	fs.replOnDown(s.ID)
}

// Recover brings a crashed server back. Requests queued on its disk from
// before the crash belong to the previous incarnation and are still
// dropped; new requests are served normally. The restarted process runs
// at nominal speed again, so any straggle factor is reset; flaky
// probabilities model the disk behind the process and persist across the
// restart.
func (fs *FS) Recover(server int) {
	s := fs.server(server)
	if !s.down {
		return
	}
	s.down = false
	s.SlowFactor = 1
	fs.health[s.ID] = Healthy
	fs.Faults.Recoveries++
	fs.annotate(s, "fault.recover")
	fs.replOnUp(s.ID)
}

// SetFlaky makes a server fail requests at completion time: with
// probability errP it replies with a transient I/O error, and with
// probability dropP it swallows the request entirely (the straggler
// behaviour hedged reads recover from). Probabilities are drawn from the
// engine's RNG per request; zero/zero restores clean service.
func (fs *FS) SetFlaky(server int, errP, dropP float64) {
	if errP < 0 || dropP < 0 || errP+dropP > 1 {
		panic(fmt.Sprintf("pfs: invalid flaky probabilities err=%v drop=%v", errP, dropP))
	}
	s := fs.server(server)
	s.flakyErrP, s.flakyDropP = errP, dropP
	fs.annotate(s, "fault.flaky",
		obs.T("err_p", strconv.FormatFloat(errP, 'g', -1, 64)),
		obs.T("drop_p", strconv.FormatFloat(dropP, 'g', -1, 64)))
}

// Straggle scales every service time on a server — the generalized
// SlowFactor. Factors in (0, 1) model faster-than-nominal devices;
// factor 1 restores nominal speed; non-positive factors panic.
func (fs *FS) Straggle(server int, factor float64) {
	if !(factor > 0) {
		panic(fmt.Sprintf("pfs: server %d straggle factor %v must be positive", server, factor))
	}
	s := fs.server(server)
	s.SlowFactor = factor
	fs.annotate(s, "fault.straggle",
		obs.T("factor", strconv.FormatFloat(factor, 'g', -1, 64)))
}

// ScaleTier applies a straggle factor to every server of one tier — the
// causal profiler's "what if every HDD were k× faster" knob, driven with
// factor 1/k before a counterfactual replay's traffic flows.
func (fs *FS) ScaleTier(role device.Kind, factor float64) {
	for _, s := range fs.servers {
		if s.Role() == role {
			fs.Straggle(s.ID, factor)
		}
	}
}

// annotate drops an instant event on a server's track when tracing is on
// — the chaos timeline rendered alongside the request spans.
func (fs *FS) annotate(s *Server, name string, tags ...obs.Tag) {
	if fs.tracer != nil {
		fs.tracer.Instant(s.Name, name, 0, tags...)
	}
}

// Health returns the MDS's current view of a server.
func (fs *FS) Health(server int) Health { return fs.health[fs.server(server).ID] }

func (fs *FS) server(i int) *Server {
	if i < 0 || i >= len(fs.servers) {
		panic(fmt.Sprintf("pfs: server %d out of range [0,%d)", i, len(fs.servers)))
	}
	return fs.servers[i]
}

// markSuspect records a client-observed timeout: the MDS will not fail
// new opens over a Suspect server, but Degraded() reports it.
func (fs *FS) markSuspect(server int) {
	if fs.health[server] == Healthy {
		fs.health[server] = Suspect
	}
}

// markHealthy clears Suspect after a successful reply. Down is cleared
// only by Recover.
func (fs *FS) markHealthy(server int) {
	if fs.health[server] == Suspect {
		fs.health[server] = Healthy
	}
}

// downServersIn lists the Down servers a layout actually stores data on.
func (fs *FS) downServersIn(lo layout.Mapper) []int {
	var down []int
	for i := 0; i < lo.Servers() && i < len(fs.servers); i++ {
		if fs.health[i] == Down && lo.StripeOf(i) > 0 {
			down = append(down, i)
		}
	}
	return down
}

// scale applies the server's SlowFactor to a service time. Factors in
// (0, 1) speed the server up, factors above 1 slow it down; non-positive
// (or NaN) factors always indicate a modelling bug and panic.
func (s *Server) scale(service sim.Duration) sim.Duration {
	f := s.SlowFactor
	if !(f > 0) {
		panic(fmt.Sprintf("pfs: server %s SlowFactor %v must be positive", s.Name, f))
	}
	if f == 1 {
		return service
	}
	return sim.Duration(float64(service) * f)
}

// admit checks whether a crashed server swallows an arriving request.
// The returned epoch pins the server incarnation that accepted it.
func (s *Server) admit() (epoch uint64, ok bool) {
	if s.down {
		s.fs.Faults.Dropped++
		return 0, false
	}
	return s.epoch, true
}

// deliver checks whether a completed request may reply: the server must
// be up and still the incarnation that admitted the request. It then
// draws the flaky outcome; a nil error with ok=true means a clean reply.
func (s *Server) deliver(epoch uint64) (err error, ok bool) {
	if s.down || s.epoch != epoch {
		s.fs.Faults.Dropped++
		return nil, false
	}
	if s.flakyErrP > 0 || s.flakyDropP > 0 {
		draw := s.fs.engine.Rand().Float64()
		if draw < s.flakyDropP {
			s.fs.Faults.Dropped++
			return nil, false
		}
		if draw < s.flakyDropP+s.flakyErrP {
			s.fs.Faults.FlakyErrs++
			return fmt.Errorf("%w: server %s", ErrFlaky, s.Name), true
		}
	}
	return nil, true
}
