// Package diagnose turns the obs sketch layer's windowed per-server
// summaries into named findings: which server degraded, when, and why.
// It is three stages glued to the virtual clock:
//
//   - a Detector that scores every server's windowed tail latency against
//     its tier-peer population with a robust MAD z-score and hysteresis
//     (flagAfter/clearAfter, mirroring the monitor's StaleAfter and
//     freshAfter), producing straggler Episodes with onset times;
//   - a classifier (classify.go) that correlates each episode with the
//     faults fired-event log, replication catch-up/promotion counters,
//     monitor staleness and critical-path blame shares to label the root
//     cause with supporting evidence;
//   - a Report (report.go) that ranks the findings, renders the region ×
//     server skew heatmap as text, and drives `harlctl doctor`.
//
// Everything here observes — the detector consumes OnWindow callbacks the
// sketch layer fires from inside existing observations, so an attached
// diagnose pipeline leaves the simulated event sequence untouched.
package diagnose

import (
	"fmt"
	"sort"

	"harl/internal/obs"
	"harl/internal/sim"
)

// flagAfter confirms a straggler after this many consecutive outlier
// windows; clearAfter clears it after this many consecutive healthy
// scored windows — the hysteresis pair that keeps one noisy window from
// flapping a diagnosis, mirroring the monitor.
const (
	flagAfter  = 2
	clearAfter = 2
)

// zThreshold is the robust z-score (0.6745·(x−median)/MAD over tier
// peers) above which a server's windowed p99 is an outlier: 3.5 is the
// standard MAD outlier cut. Tiers with only two scored peers cannot form
// a meaningful MAD; they fall back to the ratio test alone.
const zThreshold = 3.5

// madFloorFrac floors the MAD at this fraction of the median, so a
// degenerate population (all peers identical) cannot produce infinite
// z-scores.
const madFloorFrac = 0.05

// Config tunes the anomaly detector. The zero value gets defaults.
type Config struct {
	// MinOps is the fewest completed disk ops a server needs in a window
	// to be scored; sparser windows neither flag nor clear. Default 8.
	MinOps int64

	// RatioThreshold is the minimum p99/median ratio an outlier must
	// also exceed — a guard against statistically significant but
	// operationally irrelevant deviations in very tight populations.
	// Default 1.5.
	RatioThreshold float64
}

func (c Config) withDefaults() Config {
	if c.MinOps <= 0 {
		c.MinOps = 8
	}
	if c.RatioThreshold <= 1 {
		c.RatioThreshold = 1.5
	}
	return c
}

// Episode is one contiguous degradation on one server: flagged when
// flagAfter consecutive windows scored as outliers, cleared when
// clearAfter consecutive windows scored healthy. Times are virtual.
type Episode struct {
	Server   string
	Tier     string
	ServerID int

	// Onset is the start of the first flagged window — the detector's
	// estimate of when degradation began. Confirmed is the window
	// boundary at which the hysteresis threshold was crossed, so
	// Confirmed − Onset is the detection latency (flagAfter windows).
	Onset     sim.Time
	Confirmed sim.Time

	// Cleared is the boundary the episode ended at; zero while active.
	Cleared sim.Time

	// PeakZ and PeakRatio are the worst scores seen while flagged;
	// PeakUtil is the server's highest windowed utilization in the
	// episode and PeerUtil the tier-median utilization in that window.
	PeakZ     float64
	PeakRatio float64
	PeakUtil  float64
	PeerUtil  float64

	// Windows counts the outlier windows in the episode.
	Windows int
}

// Active reports whether the episode was still open at Finish time.
func (ep *Episode) Active() bool { return ep.Cleared == 0 }

// serverState carries one server's hysteresis streaks.
type serverState struct {
	flagStreak  int
	clearStreak int
	// pendingOnset is the start of the current outlier streak — promoted
	// to Episode.Onset when the streak reaches flagAfter.
	pendingOnset sim.Time
	episode      *Episode // open episode, nil when healthy
}

// Detector scores sketch windows into Episodes. Bind it to a SketchSet
// before traffic; read Episodes after Finish.
type Detector struct {
	cfg     Config
	ss      *obs.SketchSet
	states  []serverState
	eps     []*Episode
	windows int
}

// NewDetector builds a detector and binds it to the sketch set's
// OnWindow feed. The sketch set must outlive the detector's run.
func NewDetector(ss *obs.SketchSet, cfg Config) *Detector {
	if ss == nil {
		panic("diagnose: detector needs a sketch set")
	}
	d := &Detector{cfg: cfg.withDefaults(), ss: ss}
	ss.OnWindow(d.observe)
	return d
}

// Config returns the effective (defaulted) configuration.
func (d *Detector) Config() Config { return d.cfg }

// Window returns the bound sketch window.
func (d *Detector) Window() sim.Duration { return d.ss.Window() }

// Windows returns how many windows the detector has scored.
func (d *Detector) Windows() int { return d.windows }

// observe is the OnWindow sink: group by tier, score, update streaks.
func (d *Detector) observe(end sim.Time, window sim.Duration, servers []obs.ServerWindow) {
	if len(d.states) < len(servers) {
		d.states = append(d.states, make([]serverState, len(servers)-len(d.states))...)
	}
	d.windows++

	byTier := make(map[string][]int)
	for i, w := range servers {
		if w.Ops >= d.cfg.MinOps {
			byTier[w.Tier] = append(byTier[w.Tier], i)
		}
	}
	for _, peers := range byTier {
		if len(peers) < 2 {
			continue // nothing to compare against
		}
		p99s := make([]float64, len(peers))
		utils := make([]float64, len(peers))
		for j, i := range peers {
			p99s[j] = servers[i].P99
			utils[j] = servers[i].Util
		}
		med := median(p99s)
		utilMed := median(utils)
		mad := medianAbsDev(p99s, med)
		floor := madFloorFrac * med
		if mad < floor {
			mad = floor
		}
		for j, i := range peers {
			x := p99s[j]
			var z, ratio float64
			if med > 0 {
				ratio = x / med
			}
			if mad > 0 {
				z = 0.6745 * (x - med) / mad
			}
			outlier := ratio >= d.cfg.RatioThreshold
			if len(peers) >= 3 {
				// A real population: demand statistical significance too.
				outlier = outlier && z >= zThreshold
			}
			d.score(i, servers[i], end, window, outlier, z, ratio, utilMed)
		}
	}
}

// score applies the hysteresis to one scored server-window.
func (d *Detector) score(i int, w obs.ServerWindow, end sim.Time, window sim.Duration, outlier bool, z, ratio, utilMed float64) {
	st := &d.states[i]
	if outlier {
		if st.flagStreak == 0 {
			st.pendingOnset = end.Add(-window)
		}
		st.flagStreak++
		st.clearStreak = 0
		ep := st.episode
		if ep == nil && st.flagStreak >= flagAfter {
			ep = &Episode{
				Server:    w.Server,
				Tier:      w.Tier,
				ServerID:  i,
				Onset:     st.pendingOnset,
				Confirmed: end,
				Windows:   st.flagStreak,
			}
			st.episode = ep
			d.eps = append(d.eps, ep)
		}
		if ep != nil {
			if st.flagStreak > ep.Windows {
				ep.Windows = st.flagStreak
			}
			if z > ep.PeakZ {
				ep.PeakZ = z
			}
			if ratio > ep.PeakRatio {
				ep.PeakRatio = ratio
			}
			if w.Util > ep.PeakUtil {
				ep.PeakUtil = w.Util
				ep.PeerUtil = utilMed
			}
		}
		return
	}
	st.flagStreak = 0
	if st.episode != nil {
		st.clearStreak++
		if st.clearStreak >= clearAfter {
			st.episode.Cleared = end
			st.episode = nil
			st.clearStreak = 0
		}
	}
}

// Finish flushes the sketch windows up to now. Episodes still open stay
// Active — a straggler that never recovered is still a straggler.
func (d *Detector) Finish() {
	d.ss.Flush()
}

// Episodes returns every confirmed episode in confirmation order.
func (d *Detector) Episodes() []Episode {
	out := make([]Episode, len(d.eps))
	for i, ep := range d.eps {
		out[i] = *ep
	}
	return out
}

// median returns the middle of xs (mean of the middle two when even);
// xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianAbsDev returns the median absolute deviation from med.
func medianAbsDev(xs []float64, med float64) float64 {
	devs := make([]float64, len(xs))
	for i, x := range xs {
		d := x - med
		if d < 0 {
			d = -d
		}
		devs[i] = d
	}
	return median(devs)
}

// describe renders an episode for reports.
func (ep *Episode) describe() string {
	state := "active"
	if !ep.Active() {
		state = fmt.Sprintf("cleared %v", ep.Cleared)
	}
	return fmt.Sprintf("%s (%s): onset %v, confirmed %v, %s; peak p99 %.1f× tier median (z=%.1f), util %.2f vs peer %.2f over %d window(s)",
		ep.Server, ep.Tier, ep.Onset, ep.Confirmed, state, ep.PeakRatio, ep.PeakZ, ep.PeakUtil, ep.PeerUtil, ep.Windows)
}
