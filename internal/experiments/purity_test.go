package experiments

import (
	"testing"

	"harl/internal/cluster"
	"harl/internal/ior"
	"harl/internal/obs"
	"harl/internal/sim"
	"harl/internal/telemetry"
)

// purityRun is one scenario run as the observer differential sees it.
type purityRun struct {
	// facts holds every simulated outcome the scenario exposes; it is
	// comparable, and an observed run must equal the bare one exactly.
	facts any
	end   sim.Time
	// The scenario's own instruments: its tracer and registry, and the
	// drift monitor.
	instrumented bool
	spans        int // spans the run's own tracer recorded
	windows      int // windows the drift monitor closed
}

// purityScenario runs one seeded scenario bare or, with own set, with
// its own instruments attached. checkBare pins the bare run's outcome
// and guards the scenario against vacuity.
type purityScenario struct {
	name      string
	run       func(o Options, own bool) (purityRun, error)
	checkBare func(t *testing.T, bare purityRun)
}

var purityScenarios = []purityScenario{
	{
		name: "ior",
		run: func(o Options, own bool) (purityRun, error) {
			run, err := traceIOR(o, own)
			if err != nil {
				return purityRun{}, err
			}
			pr := purityRun{
				facts: struct {
					Result ior.Result
					End    sim.Time
					Events uint64
				}{run.Result, run.End, run.FS.Engine().Processed},
				end:          run.End,
				instrumented: run.Tracer != nil || run.Metrics != nil,
			}
			if run.Tracer != nil {
				pr.spans = run.Tracer.Len()
			}
			return pr, nil
		},
		checkBare: func(t *testing.T, bare purityRun) {
			if bare.instrumented {
				t.Fatal("bare run carries instruments")
			}
			pinNanos(t, "ior_end", int64(bare.end), 852_789_329)
		},
	},
	{
		// Crashes, retries, hedges and the read-back verification.
		name: "chaos",
		run: func(o Options, _ bool) (purityRun, error) {
			res, err := runChaosIOR(o, o.clientPolicy(), true)
			return purityRun{facts: res}, err
		},
		checkBare: func(t *testing.T, bare purityRun) {
			if res := bare.facts.(ChaosResult); res.Acked == 0 || res.Faults.Crashes == 0 {
				t.Error("chaos differential saw no traffic or no faults — vacuous")
			}
		},
	},
	{
		// The drift scenario's own instruments are the monitor plus a
		// tracer and registry, which replace any attached by the hook.
		name: "drift",
		run: func(o Options, own bool) (purityRun, error) {
			run, err := runDrift(o, true, own)
			if err != nil {
				return purityRun{}, err
			}
			pr := purityRun{
				facts: struct {
					End    sim.Time
					Events uint64
					Bytes  int64
					Window sim.Duration
				}{run.End, run.Events, run.Bytes, run.Window},
				end:          run.End,
				instrumented: run.Monitor != nil || run.Tracer != nil,
			}
			if run.Tracer != nil {
				pr.spans = run.Tracer.Len()
			}
			if run.Monitor != nil {
				pr.windows = run.Monitor.Windows()
			}
			return pr, nil
		},
		checkBare: func(t *testing.T, bare purityRun) {
			if bare.instrumented {
				t.Fatal("bare run carries instruments")
			}
			pinNanos(t, "drift_end", int64(bare.end), 2_640_637_661)
		},
	},
}

// attached holds the observers an Options.Attach hook wired into the
// last testbed it saw.
type attached struct {
	tel *telemetry.T
	ss  *obs.SketchSet
}

// attachObservers returns an Options copy whose Attach hook wires the
// always-on telemetry pipeline (streaming tracer into the recorder and
// SLO engine, plus a metrics registry) and/or the tail-latency sketches
// into every testbed the driver builds.
func attachObservers(o Options, tel, sketches bool) (Options, *attached) {
	a := &attached{}
	o.Attach = func(tb *cluster.Testbed) {
		if tel {
			t, err := telemetry.New(telemetry.Config{
				Seed:       o.Seed,
				RingSpans:  256,
				Objectives: SLOObjectives(o),
			})
			if err != nil {
				panic(err)
			}
			a.tel = t
			tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, t), obs.NewRegistry())
		}
		if sketches {
			a.ss = obs.NewSketchSet(tb.Engine, obs.SketchConfig{})
			tb.FS.AttachSketches(a.ss)
		}
	}
	return o, a
}

// observerSet is what one differential attaches: the scenario's own
// instruments (own), the telemetry pipeline (tel) and the sketches.
type observerSet struct {
	name               string
	own, tel, sketches bool
}

// TestObserverPurity proves every observer a pure observer: each
// scenario runs once bare, then once per observer set, and every
// observed run must execute the bare run's exact simulation. The
// "observed" set is the one the benchmark's ior_observed workload
// attaches: telemetry, the registry and the sketches together, and in
// the drift scenario the monitor as well.
func TestObserverPurity(t *testing.T) {
	sets := map[string][]observerSet{
		"ior": {
			{"tracing", true, false, false},
			{"telemetry", false, true, false},
			{"sketches", false, false, true},
			{"observed", false, true, true},
		},
		"chaos": {
			{"telemetry", false, true, false},
			{"sketches", false, false, true},
			{"observed", false, true, true},
		},
		"drift": {
			{"monitor", true, false, false},
			{"telemetry", false, true, false},
			{"sketches", false, false, true},
			{"observed", true, true, true},
		},
	}
	for _, sc := range purityScenarios {
		t.Run(sc.name, func(t *testing.T) {
			o := QuickOptions()
			bare, err := sc.run(o, false)
			if err != nil {
				t.Fatal(err)
			}
			sc.checkBare(t, bare)
			for _, set := range sets[sc.name] {
				t.Run(set.name, func(t *testing.T) {
					ao, a := attachObservers(o, set.tel, set.sketches)
					got, err := sc.run(ao, set.own)
					if err != nil {
						t.Fatal(err)
					}
					if got.facts != bare.facts {
						t.Errorf("run diverged under %s:\nbare:     %+v\nobserved: %+v", set.name, bare.facts, got.facts)
					}
					checkObserved(t, sc.name, set, got, a)
				})
			}
		})
	}
}

// checkObserved guards one observed run against vacuity: every observer
// the set attached must have seen traffic.
func checkObserved(t *testing.T, scenario string, set observerSet, run purityRun, a *attached) {
	t.Helper()
	if set.own && run.spans == 0 {
		t.Error("the scenario's own tracer recorded no spans — differential is vacuous")
	}
	if set.own && scenario == "drift" && run.windows == 0 {
		t.Error("the drift monitor closed no windows — differential is vacuous")
	}
	// In the drift scenario the run's own tracer replaces telemetry's
	// stream tracer, so only the check above applies.
	if set.tel && !(set.own && scenario == "drift") {
		if a.tel == nil || a.tel.Recorder().Stats().Captured == 0 {
			t.Error("telemetry captured no spans — differential is vacuous")
		}
	}
	if set.sketches {
		if a.ss == nil {
			t.Fatal("attach hook never ran")
		}
		var ops int64
		for i := 0; i < a.ss.NumServers(); i++ {
			r, w, _ := a.ss.ServerOps(i)
			ops += r + w
		}
		if ops == 0 {
			t.Error("sketches observed no ops — differential is vacuous")
		}
	}
}
