// Package faults schedules fault injection against the simulated PFS:
// server crashes with later recovery, flaky bouts (transient errors and
// silent request drops) and straggle bouts (scaled service times). A
// Schedule is a plain list of events on the virtual clock; Apply installs
// it on an engine and records every fired event in a Log, so two runs of
// the same schedule can be compared entry for entry.
//
// The Chaos generator draws a schedule from its own seeded RNG — not the
// engine's — so a chaos scenario is identified by (seed, Config) alone
// and replays bit-identically no matter what else the simulation does.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"harl/internal/pfs"
	"harl/internal/sim"
)

// Kind labels one fault event.
type Kind int

// Fault kinds.
const (
	Crash Kind = iota
	Recover
	Flaky    // transient error/drop probabilities until the paired Clear
	Clear    // ends a Flaky bout
	Straggle // scaled service times until the paired Unstraggle
	Unstraggle
)

// String returns the lower-case event name used in Log entries.
func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Recover:
		return "recover"
	case Flaky:
		return "flaky"
	case Clear:
		return "clear"
	case Straggle:
		return "straggle"
	case Unstraggle:
		return "unstraggle"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Event is one scheduled fault: at virtual time At, do Kind to Server.
type Event struct {
	At     sim.Duration
	Kind   Kind
	Server int

	// ErrP and DropP parameterize Flaky events: the probability of a
	// transient error reply and of a silent request drop.
	ErrP, DropP float64

	// Factor parameterizes Straggle events.
	Factor float64
}

func (ev Event) String() string {
	switch ev.Kind {
	case Flaky:
		return fmt.Sprintf("%v flaky s%d err=%.2f drop=%.2f", ev.At, ev.Server, ev.ErrP, ev.DropP)
	case Straggle:
		return fmt.Sprintf("%v straggle s%d x%.2f", ev.At, ev.Server, ev.Factor)
	}
	return fmt.Sprintf("%v %s s%d", ev.At, ev.Kind, ev.Server)
}

// Schedule is a fault sequence ordered by time.
type Schedule []Event

// Log records the events a Schedule actually fired, in firing order.
// Two runs of the same schedule must produce identical logs — the
// differential determinism test compares them with String.
type Log struct {
	Entries []string
	fired   []Fired
}

// Fired is one structured fired-event record: the event plus the firing
// sequence number, which breaks ties between events injected at the same
// virtual instant so sorted views are total orders.
type Fired struct {
	Event
	Seq int
}

// String joins the entries one per line.
func (l *Log) String() string { return strings.Join(l.Entries, "\n") }

// FiredEvents returns every fired event sorted by (At, Seq) — a stable
// total order identical across replays of the same schedule. The slice
// is a copy; callers may keep it.
func (l *Log) FiredEvents() []Fired {
	if l == nil {
		return nil
	}
	out := append([]Fired(nil), l.fired...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// EventsIn returns the fired events with At in [from, to], in the same
// stable order as FiredEvents — the window-correlation lookup diagnose
// uses, so callers never re-sort ad hoc.
func (l *Log) EventsIn(from, to sim.Duration) []Fired {
	var out []Fired
	for _, f := range l.FiredEvents() {
		if f.At >= from && f.At <= to {
			out = append(out, f)
		}
	}
	return out
}

// ServerEventsIn restricts EventsIn to one server.
func (l *Log) ServerEventsIn(server int, from, to sim.Duration) []Fired {
	var out []Fired
	for _, f := range l.EventsIn(from, to) {
		if f.Server == server {
			out = append(out, f)
		}
	}
	return out
}

// Apply installs the schedule on the engine against the file system and
// returns the log that will fill in as events fire. Call before Run.
func (s Schedule) Apply(e *sim.Engine, fs *pfs.FS) *Log {
	log := &Log{}
	for _, ev := range s {
		ev := ev
		e.Schedule(ev.At, func() {
			switch ev.Kind {
			case Crash:
				fs.Crash(ev.Server)
			case Recover:
				fs.Recover(ev.Server)
			case Flaky:
				fs.SetFlaky(ev.Server, ev.ErrP, ev.DropP)
			case Clear:
				fs.SetFlaky(ev.Server, 0, 0)
			case Straggle:
				fs.Straggle(ev.Server, ev.Factor)
			case Unstraggle:
				fs.Straggle(ev.Server, 1)
			}
			log.Entries = append(log.Entries, ev.String())
			log.fired = append(log.fired, Fired{Event: ev, Seq: len(log.fired)})
		})
	}
	return log
}

// Config bounds what a generated chaos schedule may do. The zero value
// is filled in by sensible defaults for every field except Servers,
// which callers must set to the size of the target cluster.
type Config struct {
	Servers int // number of data servers faults may target

	// Horizon is the window fault episodes start in. Recoveries may land
	// after it. Default 1s.
	Horizon sim.Duration

	// Episode counts. Defaults: 2 crashes, 2 flaky bouts, 2 straggle
	// bouts. Set a count to -1 to disable that fault class.
	Crashes   int
	FlakyRuns int
	Straggles int

	// Outage bounds a crash's downtime. Defaults 20–120 ms.
	MinOutage, MaxOutage sim.Duration

	// Bout bounds flaky and straggle episode lengths. Defaults 30–200 ms.
	MinBout, MaxBout sim.Duration

	// ReplicaGroups lists the replica groups of the file under test
	// (primary first, as in repl.Spec.Groups); the replica-targeted crash
	// shapes below draw their victims from groups with at least two
	// members. Chaos panics if a shape count is set without a usable
	// group — a correlated crash against nothing is a test bug, not a
	// scenario.
	ReplicaGroups [][]int

	// DoubleCrashes injects correlated failures inside one replica group:
	// crash the primary, then crash the promoted backup while the primary
	// is still down (the region goes unavailable), then recover both.
	// Default 0.
	DoubleCrashes int

	// RecoveryOverlaps injects a crash during catch-up: crash a backup,
	// recover it, then crash the primary shortly after the recovery —
	// while the backup may still be replaying the log. Default 0.
	RecoveryOverlaps int

	// Stagger bounds the delay between the paired events of a replica-
	// targeted shape (primary crash to backup crash, recovery to the
	// overlapping crash). Defaults 5–30 ms.
	MinStagger, MaxStagger sim.Duration
}

// maxErrP and maxDropP cap the per-request probabilities a flaky bout
// may draw; maxFactor caps straggle slowdowns, drawn in [1, maxFactor].
const (
	maxErrP   = 0.3
	maxDropP  = 0.3
	maxFactor = 8
)

func (c Config) withDefaults() Config {
	if c.Horizon <= 0 {
		c.Horizon = sim.Second
	}
	def := func(n *int, d int) {
		if *n == 0 {
			*n = d
		} else if *n < 0 {
			*n = 0
		}
	}
	def(&c.Crashes, 2)
	def(&c.FlakyRuns, 2)
	def(&c.Straggles, 2)
	if c.MinOutage <= 0 {
		c.MinOutage = 20 * sim.Millisecond
	}
	if c.MaxOutage < c.MinOutage {
		c.MaxOutage = 120 * sim.Millisecond
	}
	if c.MinBout <= 0 {
		c.MinBout = 30 * sim.Millisecond
	}
	if c.MaxBout < c.MinBout {
		c.MaxBout = 200 * sim.Millisecond
	}
	if c.MinStagger <= 0 {
		c.MinStagger = 5 * sim.Millisecond
	}
	if c.MaxStagger < c.MinStagger {
		c.MaxStagger = 30 * sim.Millisecond
	}
	return c
}

// usableGroups filters ReplicaGroups down to those a correlated crash
// can target: at least a primary and one backup.
func usableGroups(groups [][]int) [][]int {
	var out [][]int
	for _, g := range groups {
		if len(g) >= 2 {
			out = append(out, g)
		}
	}
	return out
}

// Chaos generates a fault schedule from the seed alone: episode start
// times land uniformly in the horizon, targets are drawn uniformly over
// the servers, and every episode carries its own ending event, so the
// cluster always returns to full health.
func Chaos(seed int64, cfg Config) Schedule {
	if cfg.Servers <= 0 {
		panic(fmt.Sprintf("faults: config needs Servers > 0, got %d", cfg.Servers))
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	span := func(lo, hi sim.Duration) sim.Duration {
		if hi <= lo {
			return lo
		}
		return lo + sim.Duration(rng.Int63n(int64(hi-lo)))
	}
	var s Schedule
	episode := func(start, end Kind, length sim.Duration, fill func(*Event)) {
		ev := Event{
			At:     sim.Duration(rng.Int63n(int64(cfg.Horizon))),
			Kind:   start,
			Server: rng.Intn(cfg.Servers),
		}
		if fill != nil {
			fill(&ev)
		}
		s = append(s, ev, Event{At: ev.At + length, Kind: end, Server: ev.Server})
	}
	for i := 0; i < cfg.Crashes; i++ {
		episode(Crash, Recover, span(cfg.MinOutage, cfg.MaxOutage), nil)
	}
	for i := 0; i < cfg.FlakyRuns; i++ {
		episode(Flaky, Clear, span(cfg.MinBout, cfg.MaxBout), func(ev *Event) {
			ev.ErrP = rng.Float64() * maxErrP
			ev.DropP = rng.Float64() * maxDropP
		})
	}
	for i := 0; i < cfg.Straggles; i++ {
		episode(Straggle, Unstraggle, span(cfg.MinBout, cfg.MaxBout), func(ev *Event) {
			ev.Factor = 1 + rng.Float64()*(maxFactor-1)
		})
	}
	// Replica-targeted shapes draw strictly after the legacy episodes, so
	// configs without them consume exactly the randomness they always did
	// — legacy schedules replay bit-identically from their seeds.
	if cfg.DoubleCrashes > 0 || cfg.RecoveryOverlaps > 0 {
		groups := usableGroups(cfg.ReplicaGroups)
		if len(groups) == 0 {
			panic("faults: replica-targeted crash shapes need ReplicaGroups with >= 2 members")
		}
		for i := 0; i < cfg.DoubleCrashes; i++ {
			g := groups[rng.Intn(len(groups))]
			primary, backup := g[0], g[1]
			at := sim.Duration(rng.Int63n(int64(cfg.Horizon)))
			stagger := span(cfg.MinStagger, cfg.MaxStagger)
			out1 := span(cfg.MinOutage, cfg.MaxOutage)
			out2 := span(cfg.MinOutage, cfg.MaxOutage)
			// Primary dies, the backup is promoted, then dies too: the
			// region is unavailable until a member returns. Both recover.
			s = append(s,
				Event{At: at, Kind: Crash, Server: primary},
				Event{At: at + stagger, Kind: Crash, Server: backup},
				Event{At: at + stagger + out1, Kind: Recover, Server: backup},
				Event{At: at + stagger + out1 + out2, Kind: Recover, Server: primary},
			)
		}
		for i := 0; i < cfg.RecoveryOverlaps; i++ {
			g := groups[rng.Intn(len(groups))]
			primary, backup := g[0], g[1]
			at := sim.Duration(rng.Int63n(int64(cfg.Horizon)))
			out1 := span(cfg.MinOutage, cfg.MaxOutage)
			stagger := span(cfg.MinStagger, cfg.MaxStagger)
			out2 := span(cfg.MinOutage, cfg.MaxOutage)
			// The backup recovers and starts replaying the log; the
			// primary dies right behind the recovery, so the group must
			// ride on a member that may still be catching up.
			s = append(s,
				Event{At: at, Kind: Crash, Server: backup},
				Event{At: at + out1, Kind: Recover, Server: backup},
				Event{At: at + out1 + stagger, Kind: Crash, Server: primary},
				Event{At: at + out1 + stagger + out2, Kind: Recover, Server: primary},
			)
		}
	}
	sort.SliceStable(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}

// End returns the time of the schedule's last event — after it, every
// injected fault has been lifted.
func (s Schedule) End() sim.Duration {
	var end sim.Duration
	for _, ev := range s {
		if ev.At > end {
			end = ev.At
		}
	}
	return end
}

// Watchdog flags simulations that stall: if Disarm is not called before
// the deadline, onHang runs on the virtual clock. Because a dropped
// request simply never calls back, a chaos run that loses its last
// completion would otherwise end silently — the watchdog turns that into
// a detectable failure.
type Watchdog struct {
	fired    bool
	disarmed bool
}

// NewWatchdog arms a watchdog; onHang fires at the deadline unless
// Disarm is called first.
func NewWatchdog(e *sim.Engine, deadline sim.Duration, onHang func()) *Watchdog {
	w := &Watchdog{}
	e.Schedule(deadline, func() {
		if w.disarmed {
			return
		}
		w.fired = true
		if onHang != nil {
			onHang()
		}
	})
	return w
}

// Disarm stops the watchdog; call it from the completion path.
func (w *Watchdog) Disarm() { w.disarmed = true }

// Fired reports whether the deadline elapsed while armed.
func (w *Watchdog) Fired() bool { return w.fired }
