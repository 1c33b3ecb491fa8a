// Package monitor is the online region-workload monitor: it watches the
// live request stream flowing through a HARL-placed file, maintains
// streaming per-region statistics on the virtual clock, and compares
// them against the workload assumptions the plan was optimized under
// (harl.PlanFingerprint). From that comparison it produces a
// layout-health report — per-region drift scores, a staleness verdict
// with hysteresis, and replan advice costed through the same analytical
// model the Analysis Phase searched with.
//
// The paper's RST is only optimal for the traced workload it was planned
// from; when the workload drifts, the layout silently degrades. The
// monitor is the layer that notices: it answers "is the layout still the
// one the planner would choose?" without re-tracing or interrupting the
// run.
//
// # Determinism contract
//
// The monitor inherits the obs package's passive-observer rules:
//
//   - it never schedules events, arms timers, or draws from the engine's
//     random source — windows roll lazily when an observation arrives
//     past the boundary, and the reservoir uses a private xorshift
//     generator — so a monitored run executes the exact event sequence
//     of an unmonitored one;
//   - a nil *Monitor is a valid, disabled monitor: every method is
//     nil-receiver safe and allocation-free, so feed points call
//     unconditionally.
package monitor

import (
	"fmt"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/stats"
)

// Config tunes the monitor's window, scoring gates, CV threshold and
// advisor bar. The zero value selects the defaults noted per field.
type Config struct {
	// Window is the sliding statistics window on the virtual clock;
	// 0 means DefaultWindow.
	Window sim.Duration
	// MinRequests gates scoring: windows with fewer requests in a region
	// leave that region's streaks untouched — sparse windows say nothing
	// either way (0 means 16).
	MinRequests int
	// ReservoirSize bounds the per-region window sample the advisor
	// re-optimizes over (0 means 256).
	ReservoirSize int

	// CVThreshold bounds |cv - cvPlan| / max(cvPlan, 0.25): how far the
	// window's request-size dispersion may wander from plan time
	// (0 means 1.0). A window counts as drifted when any score reaches
	// its threshold (score/threshold >= 1); sizeThreshold and
	// mixThreshold are the other two.
	CVThreshold float64

	// GainThreshold is the advisor's bar: recommend a restripe only when
	// the modeled cost gain (cur-best)/cur clears it (0 means 0.05).
	GainThreshold float64
}

// DefaultWindow is the default sliding-window length.
const DefaultWindow = 50 * sim.Millisecond

// StaleAfter is the hysteresis up-count: a region is flagged stale only
// after this many consecutive drifted windows. A stale region is
// unflagged after freshAfter consecutive clean windows.
const (
	StaleAfter = 2
	freshAfter = 2
)

// The other drift thresholds: sizeThreshold bounds the mean relative
// decile distance between the window's size distribution and the
// fingerprint's, and mixThreshold bounds |writeMix - writeMixPlan|.
const (
	sizeThreshold = 0.5
	mixThreshold  = 0.25
)

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.MinRequests == 0 {
		c.MinRequests = 16
	}
	if c.ReservoirSize == 0 {
		c.ReservoirSize = 256
	}
	if c.CVThreshold == 0 {
		c.CVThreshold = 1.0
	}
	if c.GainThreshold == 0 {
		c.GainThreshold = 0.05
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch {
	case c.Window < 0:
		return fmt.Errorf("monitor: negative window %v", c.Window)
	case c.MinRequests < 0 || c.ReservoirSize < 0:
		return fmt.Errorf("monitor: negative request gates %d/%d", c.MinRequests, c.ReservoirSize)
	case c.CVThreshold < 0 || c.GainThreshold < 0:
		return fmt.Errorf("monitor: negative thresholds")
	}
	return nil
}

// sample is one observed request kept for the advisor's re-optimization:
// region-local offset (each region is its own physical file) plus size
// and direction.
type sample struct {
	Op   device.Op
	Off  int64
	Size int64
}

// windowAccum accumulates one region's open window.
type windowAccum struct {
	sizes      stats.Welford
	sketch     *stats.QuantileSketch
	res        *stats.Reservoir[sample]
	readBytes  int64
	writeBytes int64
	reads      int64
	writes     int64
}

func (w *windowAccum) requests() int64 { return w.reads + w.writes }

func (w *windowAccum) reset() {
	w.sizes.Reset()
	w.sketch.Reset()
	w.res.Reset()
	w.readBytes, w.writeBytes, w.reads, w.writes = 0, 0, 0, 0
}

// WindowStats is one region's completed-window summary.
type WindowStats struct {
	End        sim.Time // window close time
	Requests   int64
	ReadBytes  int64
	WriteBytes int64
	MeanSize   float64
	CV         float64
	WriteMix   float64 // fraction of window bytes written
	// Rate is the window's request arrival rate in requests/second of
	// virtual time.
	Rate float64
}

// DriftScores are one region's window-vs-fingerprint divergences, each
// normalized by its threshold so >= 1 means "drifted on this axis".
type DriftScores struct {
	CVDivergence float64 // |cv-cvPlan| / max(cvPlan, 0.25), over CVThreshold
	SizeDistance float64 // mean relative decile distance, over sizeThreshold
	MixShift     float64 // |mix-mixPlan|, over mixThreshold
}

// Max returns the dominant normalized score.
func (d DriftScores) Max() float64 {
	m := d.CVDivergence
	if d.SizeDistance > m {
		m = d.SizeDistance
	}
	if d.MixShift > m {
		m = d.MixShift
	}
	return m
}

// regionState is the monitor's per-region memory.
type regionState struct {
	// Cumulative totals, matching the obs registry's per-region counters
	// byte for byte.
	readBytes  int64
	writeBytes int64
	readOps    int64
	writeOps   int64
	// cumSketch merges every closed window's size sketch.
	cumSketch *stats.QuantileSketch

	win windowAccum

	// last is the most recent scored window (>= MinRequests requests);
	// lastScores its drift scores; lastSample a copy of its reservoir.
	last       WindowStats
	lastScores DriftScores
	lastSample []sample
	scored     bool

	staleStreak int
	freshStreak int
	stale       bool
	staleAt     sim.Time // when the region was last flagged
}

// Monitor watches one HARL file's request stream. Construct with New;
// nil is a disabled monitor.
type Monitor struct {
	engine *sim.Engine
	cfg    Config
	params cost.Params
	fp     *harl.PlanFingerprint
	tracer *obs.Tracer

	windowStart sim.Time
	windows     int
	regions     []regionState

	// Per-tier byte totals fed from the pfs disk-completion hook
	// (ObserveTier), indexed [tier][op].
	tierBytes [2][2]int64
}

// New builds a monitor for a plan fingerprint. The engine supplies
// virtual timestamps; params is the calibrated cost model the advisor
// scores with (the same one the plan was searched with).
func New(e *sim.Engine, fp *harl.PlanFingerprint, params cost.Params, cfg Config) (*Monitor, error) {
	if e == nil {
		return nil, fmt.Errorf("monitor: needs an engine")
	}
	if fp == nil || len(fp.Regions) == 0 {
		return nil, fmt.Errorf("monitor: needs a plan fingerprint with regions")
	}
	if err := fp.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		engine:      e,
		cfg:         cfg,
		params:      params,
		fp:          fp,
		windowStart: e.Now(),
		regions:     make([]regionState, len(fp.Regions)),
	}
	for i := range m.regions {
		r := &m.regions[i]
		r.cumSketch = stats.NewQuantileSketch(stats.DefaultSketchAlpha)
		r.win.sketch = stats.NewQuantileSketch(stats.DefaultSketchAlpha)
		// Seed varies per region so two regions with identical streams
		// keep independent samples; it is fixed per (region), never drawn
		// from the engine, preserving the passive-observer contract.
		r.win.res = stats.NewReservoir[sample](cfg.ReservoirSize, uint64(i+1)*0x9e3779b97f4a7c15)
	}
	return m, nil
}

// Enabled reports whether the monitor records anything.
func (m *Monitor) Enabled() bool { return m != nil }

// Config returns the effective (default-filled) configuration.
func (m *Monitor) Config() Config {
	if m == nil {
		return Config{}
	}
	return m.cfg
}

// Fingerprint returns the plan fingerprint the monitor compares against.
func (m *Monitor) Fingerprint() *harl.PlanFingerprint {
	if m == nil {
		return nil
	}
	return m.fp
}

// AttachTracer routes window-close drift gauges onto tr as counter
// samples on the "monitor" track (drift.r<i>, stale.r<i>), so Perfetto
// renders drift alongside the request spans. Passing nil detaches.
func (m *Monitor) AttachTracer(tr *obs.Tracer) {
	if m == nil {
		return
	}
	m.tracer = tr
}

// Observe feeds one region-local request fragment: the direction, the
// RST region index, the region-local offset and the fragment length.
// Call sites pass exactly the per-region pieces they account to the obs
// registry counters, so monitor totals and registry counters agree
// exactly. Nil-safe and allocation-free when disabled.
func (m *Monitor) Observe(op device.Op, region int, off, size int64) {
	if m == nil {
		return
	}
	if region < 0 || region >= len(m.regions) {
		panic(fmt.Sprintf("monitor: region %d out of range [0,%d)", region, len(m.regions)))
	}
	m.roll(m.engine.Now())
	r := &m.regions[region]
	if op == device.Write {
		r.writeBytes += size
		r.writeOps++
		r.win.writeBytes += size
		r.win.writes++
	} else {
		r.readBytes += size
		r.readOps++
		r.win.readBytes += size
		r.win.reads++
	}
	r.win.sizes.Add(float64(size))
	r.win.sketch.Add(float64(size))
	r.win.res.Add(sample{Op: op, Off: off, Size: size})
}

// ObserveTier feeds one completed disk sub-request from the pfs layer:
// the serving tier, the direction and the bytes moved. Implements the
// pfs.TierObserver interface. Nil-safe.
func (m *Monitor) ObserveTier(role device.Kind, op device.Op, bytes int64) {
	if m == nil {
		return
	}
	ti, oi := 0, 0
	if role == device.SSD {
		ti = 1
	}
	if op == device.Write {
		oi = 1
	}
	m.tierBytes[ti][oi] += bytes
}

// roll closes every window boundary passed since the last observation.
// Windows advance lazily — no scheduled events — so the monitor stays a
// passive observer.
func (m *Monitor) roll(now sim.Time) {
	for now.Sub(m.windowStart) >= m.cfg.Window {
		end := m.windowStart.Add(m.cfg.Window)
		m.closeWindow(end)
		m.windowStart = end
	}
}

// closeWindow scores every region's accumulated window at its boundary
// time and updates the hysteresis state machines.
func (m *Monitor) closeWindow(end sim.Time) {
	m.windows++
	for i := range m.regions {
		r := &m.regions[i]
		n := r.win.requests()
		if n == 0 {
			continue
		}
		r.cumSketch.Merge(r.win.sketch)
		if n >= int64(m.cfg.MinRequests) {
			ws := m.windowStats(&r.win, end)
			scores := m.score(i, ws, &r.win)
			r.last, r.lastScores, r.scored = ws, scores, true
			r.lastSample = append(r.lastSample[:0], r.win.res.Items()...)
			if scores.Max() >= 1 {
				r.staleStreak++
				r.freshStreak = 0
				if !r.stale && r.staleStreak >= StaleAfter {
					r.stale = true
					r.staleAt = end
				}
			} else {
				r.freshStreak++
				r.staleStreak = 0
				if r.stale && r.freshStreak >= freshAfter {
					r.stale = false
				}
			}
			if m.tracer != nil {
				m.emitGauges(i, end, scores, r.stale)
			}
		}
		r.win.reset()
	}
}

// windowStats summarizes a closed window.
func (m *Monitor) windowStats(w *windowAccum, end sim.Time) WindowStats {
	ws := WindowStats{
		End:        end,
		Requests:   w.requests(),
		ReadBytes:  w.readBytes,
		WriteBytes: w.writeBytes,
		MeanSize:   w.sizes.Mean(),
		CV:         w.sizes.CV(),
	}
	if total := w.readBytes + w.writeBytes; total > 0 {
		ws.WriteMix = float64(w.writeBytes) / float64(total)
	}
	if secs := m.cfg.Window.Seconds(); secs > 0 {
		ws.Rate = float64(ws.Requests) / secs
	}
	return ws
}

// score computes a window's normalized drift scores against region i's
// fingerprint.
func (m *Monitor) score(i int, ws WindowStats, w *windowAccum) DriftScores {
	fp := m.fp.Regions[i]
	var d DriftScores

	// CV divergence: absolute CV distance, relative to the plan's CV but
	// floored so near-zero plan CVs don't explode the ratio.
	cvBase := fp.CV
	if cvBase < 0.25 {
		cvBase = 0.25
	}
	d.CVDivergence = abs(ws.CV-fp.CV) / cvBase / m.cfg.CVThreshold

	// Size-distribution distance: mean relative decile displacement
	// between the window's sketch and the fingerprint.
	if deciles, ok := w.sketch.Deciles(); ok {
		var sum float64
		var cnt int
		for k, q := range deciles {
			if p := fp.SizeDeciles[k]; p > 0 {
				sum += abs(q-p) / p
				cnt++
			}
		}
		if cnt > 0 {
			d.SizeDistance = sum / float64(cnt) / sizeThreshold
		}
	}

	d.MixShift = abs(ws.WriteMix-fp.WriteMix) / mixThreshold
	return d
}

// emitGauges samples the drift counters onto the attached tracer.
func (m *Monitor) emitGauges(i int, at sim.Time, scores DriftScores, stale bool) {
	name := fmt.Sprintf("drift.r%d", i)
	m.tracer.Counter("monitor", name, at, scores.Max())
	staleVal := 0.0
	if stale {
		staleVal = 1
	}
	m.tracer.Counter("monitor", fmt.Sprintf("stale.r%d", i), at, staleVal)
}

// Windows returns how many windows have closed.
func (m *Monitor) Windows() int {
	if m == nil {
		return 0
	}
	return m.windows
}

// Regions returns the monitored region count.
func (m *Monitor) Regions() int {
	if m == nil {
		return 0
	}
	return len(m.regions)
}

// RegionBytes returns region i's cumulative observed bytes by direction.
func (m *Monitor) RegionBytes(i int) (read, written int64) {
	if m == nil {
		return 0, 0
	}
	return m.regions[i].readBytes, m.regions[i].writeBytes
}

// RegionOps returns region i's cumulative observed request fragments by
// direction.
func (m *Monitor) RegionOps(i int) (reads, writes int64) {
	if m == nil {
		return 0, 0
	}
	return m.regions[i].readOps, m.regions[i].writeOps
}

// TierBytes returns the cumulative bytes served by a tier for an op, as
// fed through ObserveTier.
func (m *Monitor) TierBytes(role device.Kind, op device.Op) int64 {
	if m == nil {
		return 0
	}
	ti, oi := 0, 0
	if role == device.SSD {
		ti = 1
	}
	if op == device.Write {
		oi = 1
	}
	return m.tierBytes[ti][oi]
}

// Stale reports whether region i is currently flagged stale. The verdict
// reflects windows closed so far; call Flush first for an end-of-run
// answer.
func (m *Monitor) Stale(i int) bool {
	if m == nil {
		return false
	}
	return m.regions[i].stale
}

// Healthy reports whether no region is flagged stale.
func (m *Monitor) Healthy() bool {
	if m == nil {
		return true
	}
	for i := range m.regions {
		if m.regions[i].stale {
			return false
		}
	}
	return true
}

// Flush closes every window boundary up to the engine's current time —
// call at end of run so trailing windows are scored before Report.
func (m *Monitor) Flush() {
	if m == nil {
		return
	}
	m.roll(m.engine.Now())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
