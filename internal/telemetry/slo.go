package telemetry

import (
	"fmt"

	"harl/internal/sim"
)

// The SLO engine evaluates declarative objectives with multi-window
// burn-rate alerting on the virtual clock (the Google SRE workbook
// recipe): an alert fires only when the error budget burns faster than
// the threshold over BOTH a long window (sustained damage, not a blip)
// and a short window (still burning now, not historical). Everything is
// driven lazily from observation timestamps — the engine never arms
// timers — so an attached run stays event-for-event identical to bare.

// Kind classifies what an objective measures and which observations feed
// it.
type Kind string

const (
	// KindLatency tracks the fraction of operations that both succeed
	// and finish within Limit seconds.
	KindLatency Kind = "latency"
	// KindAvailability tracks the fraction of server attempts that
	// succeed.
	KindAvailability Kind = "availability"
	// KindCatchUpLag tracks the fraction of replication catch-up steps
	// whose remaining lag is at most Limit records.
	KindCatchUpLag Kind = "catchup-lag"
	// KindStaleness tracks hard-staleness episodes: a member whose
	// replay gap was pruned counts bad until it is caught up again.
	KindStaleness Kind = "staleness"
)

// Objective is one declarative SLO.
type Objective struct {
	// Name labels alerts and incident bundles.
	Name string
	// Kind selects which observations feed the objective.
	Kind Kind
	// Target is the good fraction the objective promises, e.g. 0.999.
	// The error budget is 1 - Target.
	Target float64
	// Limit is the per-observation threshold a "good" event must clear:
	// seconds for latency, records for catch-up lag. <= 0 means the
	// observation's own ok flag alone decides.
	Limit float64
	// Window is the long burn-rate window (virtual time).
	Window sim.Duration
	// Short is the short window; defaults to Window/6.
	Short sim.Duration
	// Burn is the burn-rate threshold both windows must exceed;
	// defaults to 4 (the SRE workbook's mid-tier page).
	Burn float64
	// MinSamples gates firing until the short window holds at least this
	// many observations; defaults to 8.
	MinSamples int
}

// Alert is one burn-rate violation.
type Alert struct {
	Objective string
	Kind      Kind
	At        sim.Time
	BurnLong  float64
	BurnShort float64
	// Detail names the worst offender among the bad observations since
	// the last alert, e.g. "group 1" or "server hdd3".
	Detail string
}

func (a Alert) String() string {
	s := fmt.Sprintf("%s: burn %.2fx long / %.2fx short at %v", a.Objective, a.BurnLong, a.BurnShort, a.At)
	if a.Detail != "" {
		s += " (" + a.Detail + ")"
	}
	return s
}

// sloBuckets is the long window's bucket count; the short window reuses
// a suffix of the same array.
const sloBuckets = 60

type bucket struct{ good, bad int64 }

// objState is one objective's sliding-window accumulator: a circular
// bucket array advanced lazily from observation timestamps.
type objState struct {
	o       Objective
	width   sim.Duration
	shortN  int
	buckets [sloBuckets]bucket
	cur     int      // bucket holding curStart
	start   sim.Time // start of buckets[cur]
	began   bool
	lGood   int64 // running long-window sums
	lBad    int64
	latched bool
	badBy   map[string]int64 // bad counts per detail since last alert
}

// Engine evaluates a set of objectives.
type Engine struct {
	states []*objState
	alerts []Alert
}

// NewEngine builds an engine from the objectives, filling defaults.
// Objectives with a non-positive Window are rejected.
func NewEngine(objectives []Objective) (*Engine, error) {
	e := &Engine{}
	for _, o := range objectives {
		if o.Window <= 0 {
			return nil, fmt.Errorf("telemetry: objective %q needs a positive window", o.Name)
		}
		if o.Short <= 0 {
			o.Short = o.Window / 6
		}
		if o.Burn <= 0 {
			o.Burn = 4
		}
		if o.MinSamples <= 0 {
			o.MinSamples = 8
		}
		if o.Target <= 0 || o.Target >= 1 {
			return nil, fmt.Errorf("telemetry: objective %q target %v outside (0,1)", o.Name, o.Target)
		}
		width := o.Window / sloBuckets
		if width <= 0 {
			width = 1
		}
		shortN := int(o.Short / width)
		if shortN < 1 {
			shortN = 1
		}
		if shortN > sloBuckets {
			shortN = sloBuckets
		}
		e.states = append(e.states, &objState{
			o: o, width: width, shortN: shortN, badBy: make(map[string]int64),
		})
	}
	return e, nil
}

// Objectives returns the engine's (defaults-filled) objectives.
func (e *Engine) Objectives() []Objective {
	out := make([]Objective, len(e.states))
	for i, st := range e.states {
		out[i] = st.o
	}
	return out
}

// Alerts returns every alert fired so far, in firing order.
func (e *Engine) Alerts() []Alert { return e.alerts }

// watches reports whether any objective is of the given kind.
func (e *Engine) watches(kind Kind) bool {
	for _, st := range e.states {
		if st.o.Kind == kind {
			return true
		}
	}
	return false
}

// Observe feeds one measurement to every objective of the matching kind
// and returns the alerts this observation fired (usually none). ok is
// the operation-level success flag; value is the kind's magnitude
// (seconds, records); detail names the offender for alert attribution.
func (e *Engine) Observe(kind Kind, at sim.Time, ok bool, value float64, detail string) []Alert {
	var fired []Alert
	for _, st := range e.states {
		if st.o.Kind != kind {
			continue
		}
		if a, did := st.observe(at, ok, value, detail); did {
			fired = append(fired, a)
			e.alerts = append(e.alerts, a)
		}
	}
	return fired
}

func (st *objState) observe(at sim.Time, ok bool, value float64, detail string) (Alert, bool) {
	st.advance(at)
	good := ok && (st.o.Limit <= 0 || value <= st.o.Limit)
	b := &st.buckets[st.cur]
	if good {
		b.good++
		st.lGood++
	} else {
		b.bad++
		st.lBad++
		if detail != "" {
			st.badBy[detail]++
		}
	}

	budget := 1 - st.o.Target
	burnLong := burnRate(st.lGood, st.lBad, budget)
	var sGood, sBad int64
	for i := 0; i < st.shortN; i++ {
		sb := st.buckets[(st.cur-i+sloBuckets)%sloBuckets]
		sGood += sb.good
		sBad += sb.bad
	}
	burnShort := burnRate(sGood, sBad, budget)

	if st.latched {
		if burnLong < st.o.Burn {
			// Budget recovered; re-arm, and start attribution fresh so the
			// next incident is not blamed on this one's offenders.
			st.latched = false
			st.badBy = make(map[string]int64)
		}
		return Alert{}, false
	}
	if burnLong < st.o.Burn || burnShort < st.o.Burn || sGood+sBad < int64(st.o.MinSamples) {
		return Alert{}, false
	}
	st.latched = true
	a := Alert{
		Objective: st.o.Name, Kind: st.o.Kind, At: at,
		BurnLong: burnLong, BurnShort: burnShort,
		Detail: worstDetail(st.badBy),
	}
	st.badBy = make(map[string]int64)
	return a, true
}

// advance slides the circular window so buckets[cur] covers at. Moving
// forward zeroes the buckets the window rolled past (evicting their
// counts from the running sums); a gap longer than the whole window
// resets everything. Observations earlier than the current bucket (the
// clock never runs backwards, but retroactive spans may finalize late)
// land in the current bucket rather than rewriting history.
func (st *objState) advance(at sim.Time) {
	if !st.began {
		st.began = true
		st.start = sim.Time(int64(at) / int64(st.width) * int64(st.width))
		return
	}
	steps := 0
	for at >= st.start.Add(st.width) {
		steps++
		if steps > sloBuckets {
			// The window slid entirely past its contents.
			for i := range st.buckets {
				st.buckets[i] = bucket{}
			}
			st.lGood, st.lBad = 0, 0
			st.cur = 0
			st.start = sim.Time(int64(at) / int64(st.width) * int64(st.width))
			return
		}
		st.cur = (st.cur + 1) % sloBuckets
		st.lGood -= st.buckets[st.cur].good
		st.lBad -= st.buckets[st.cur].bad
		st.buckets[st.cur] = bucket{}
		st.start = st.start.Add(st.width)
	}
}

// burnRate is the window's error fraction over the error budget: 1x
// means burning exactly the budget, 14x the workbook's fast page.
func burnRate(good, bad int64, budget float64) float64 {
	total := good + bad
	if total == 0 || budget <= 0 {
		return 0
	}
	return (float64(bad) / float64(total)) / budget
}

// worstDetail picks the detail with the most bad observations, ties
// broken by the lexicographically smallest name for determinism.
func worstDetail(badBy map[string]int64) string {
	var best string
	var bestN int64
	for d, n := range badBy {
		if n > bestN || (n == bestN && bestN > 0 && d < best) {
			best, bestN = d, n
		}
	}
	return best
}
