package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"harl/internal/stats"
)

// minTimed is the fewest timed iterations a run reports, however long
// one iteration takes.
const minTimed = 3

// profileHz is the traced iteration's CPU sampling rate.
const profileHz = 1000

// runConfig is one workload run's settings.
type runConfig struct {
	seed    int64
	seconds float64 // timed iterations continue until this much host time has passed
	traced  bool    // add the per-layer iteration and write its outputs
	small   bool    // test-sized inputs
	out     string  // directory for the traced outputs
}

// childResult is what a workload run reports.
type childResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Requests  int                `json:"requests"` // latency samples per iteration
	Metrics   map[string]summary `json:"metrics"`
}

// sample is what the ledger keeps of one iteration once its testbed is
// released.
type sample struct {
	wall, setup, loop float64 // host seconds, scaled by atHostSpeed
	self              map[string]float64
	yardstick         float64 // the reference kernel's seconds around the iteration
	virt              virtual
	payload           int64
	loopRuntime       runtimeCounters // across the measured loop
	iterRuntime       runtimeCounters // across the iteration and one closing GC
	loopEvents        uint64
	attempted, failed int
	failures          []string
}

// iterate runs one iteration of w inside its root span.
func iterate(w workload, it *iter) error {
	return it.span("iteration", func() error { return w.run(it) })
}

func newSample(it *iter, iterRuntime runtimeCounters) sample {
	root, _ := it.spans.find(it.id, "iteration")
	s := sample{
		wall: (root.End - root.Start).Seconds(), self: it.spans.selfSeconds(it.id),
		virt: it.virt, payload: it.payload, loopRuntime: it.loop, iterRuntime: iterRuntime,
		loopEvents: it.loopEvents, attempted: it.rec.attempted, failed: it.rec.failed + it.violations,
		failures: it.failures,
	}
	if run, ok := it.spans.find(it.id, "sim.run"); ok {
		s.setup = (run.Start - root.Start).Seconds()
		s.loop = (run.End - run.Start).Seconds()
	}
	return s
}

// atHostSpeed scales the sample's host times to the nominal host speed,
// given the yardstick's seconds measured around the iteration.
func (s *sample) atHostSpeed(yardstickSeconds float64) {
	k := yardstickNominal / yardstickSeconds
	s.yardstick = yardstickSeconds
	s.wall, s.setup, s.loop = s.wall*k, s.setup*k, s.loop*k
	for name := range s.self {
		s.self[name] *= k
	}
}

// runWorkload runs w in this process: one untimed warm-up iteration,
// the reference workload once when w has one, timed iterations until
// cfg.seconds have passed (at least minTimed) with the yardstick between
// them, the gate, and with cfg.traced one more iteration under the CPU
// profiler for the per-layer ledger.
//
// Everything runs on one thread. The yardstick is single-threaded, so
// it gauges the speed that thread sees; and the garbage collector's work
// lands in the iteration's own time rather than on an idle second CPU.
func runWorkload(w workload, cfg runConfig) (*childResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	spans := newSpanLog()
	ids := 0
	newIt := func(traced bool) *iter {
		it := newIter(cfg.seed, ids, spans)
		it.small, it.traced = cfg.small, traced
		ids++
		return it
	}
	run := func(wl workload) (sample, error) {
		runtime.GC()
		before := readRuntime()
		it := newIt(false)
		if err := iterate(wl, it); err != nil {
			return sample{}, fmt.Errorf("%s: %w", wl.name, err)
		}
		runtime.GC() // it is still in use, so this GC marks the iteration's state live
		return newSample(it, readRuntime().minus(before)), nil
	}

	warm, err := run(w)
	if err != nil {
		return nil, err
	}
	var ref *sample
	if w.reference != "" {
		rw, _ := findWorkload(w.reference)
		s, err := run(rw)
		if err != nil {
			return nil, err
		}
		ref = &s
	}
	var timed []sample
	before := yardstick()
	for start := time.Now(); len(timed) < minTimed || time.Since(start).Seconds() < cfg.seconds; {
		s, err := run(w)
		if err != nil {
			return nil, err
		}
		after := yardstick()
		s.atHostSpeed((before + after) / 2)
		before = after
		timed = append(timed, s)
	}

	res := &childResult{Workload: w.name, Seed: cfg.seed, Requests: warm.virt.Samples, Metrics: map[string]summary{}}
	fail := func(check, format string, args ...any) {
		res.Failures = append(res.Failures, fmt.Sprintf("%s: %s: ", w.name, check)+fmt.Sprintf(format, args...))
	}
	for i, s := range append([]sample{warm}, timed...) {
		for _, f := range s.failures {
			fail("iteration "+fmt.Sprint(i), "%s", f)
		}
		if s.virt != warm.virt {
			fail("determinism", "iteration %d reached %+v, the warm-up %+v", i, s.virt, warm.virt)
		}
	}
	if ref != nil {
		for _, f := range ref.failures {
			fail(w.reference+" reference", "%s", f)
		}
		if ref.virt != warm.virt {
			fail("observer purity", "%+v differs from %s's %+v", warm.virt, w.reference, ref.virt)
		}
	}
	for _, s := range timed {
		res.Attempted += s.attempted
		res.Failed += s.failed
	}
	addEndToEnd(res, timed)

	if cfg.traced {
		tr := newIt(true)
		if err := addPerLayer(res, w, cfg, timed, tr); err != nil {
			return nil, err
		}
		for _, f := range tr.failures {
			fail("traced iteration", "%s", f)
		}
		if tr.virt != warm.virt {
			fail("observer purity", "the traced iteration reached %+v, the warm-up %+v", tr.virt, warm.virt)
		}
		if err := spans.writeChrome(filepath.Join(cfg.out, w.name+".spans.json")); err != nil {
			return nil, err
		}
	}
	for name, s := range res.Metrics {
		for _, v := range s.Samples {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fail("finite metrics", "%s is %v", name, v)
				res.Metrics[name] = summarize(s.Unit, 0)
				break
			}
		}
	}
	res.Correct = len(res.Failures) == 0
	return res, nil
}

// column collects one value from every timed iteration.
func column(timed []sample, f func(s sample) float64) []float64 {
	out := make([]float64, len(timed))
	for i, s := range timed {
		out[i] = f(s)
	}
	return out
}

// put summarizes a declared metric's values into the result.
func (r *childResult) put(name string, xs ...float64) {
	m, ok := lookupMetric(name)
	if !ok {
		panic("undeclared metric " + name)
	}
	r.Metrics[name] = summarize(m.Unit, xs...)
}

// addEndToEnd summarizes the timed iterations, with failed_frac, which
// every run reports. peak_rss_MB, which every run reports too, is the
// parent's to add: it reads the child process's rusage.
func addEndToEnd(res *childResult, timed []sample) {
	put := func(name string, f func(s sample) float64) { res.put(name, column(timed, f)...) }
	put("failed_frac", func(s sample) float64 { return ratio(float64(s.failed), float64(s.attempted)) })
	put("wall_s", func(s sample) float64 { return s.wall })
	put("setup_s", func(s sample) float64 { return s.setup })
	put("sim_MB_per_s", func(s sample) float64 { return stats.Throughput(s.payload, s.loop) })
	put("live_heap_MB", func(s sample) float64 { return float64(s.iterRuntime.liveHeap) / (1 << 20) })
	put("virt_write_MBps", func(s sample) float64 { return stats.Throughput(s.virt.WriteBytes, s.virt.WriteTime.Seconds()) })
	put("virt_read_MBps", func(s sample) float64 { return stats.Throughput(s.virt.ReadBytes, s.virt.ReadTime.Seconds()) })
	put("virt_mean_ms", func(s sample) float64 { return s.virt.MeanMs })
	put("virt_p95_ms", func(s sample) float64 { return s.virt.P95Ms })
}

// spanMetrics maps each harness span to its per-layer self-time metric.
var spanMetrics = []string{"cluster.new", "cost.calibrate", "trace.acquire", "harl.analyze", "mpiio.create", "sim.run", "verify"}

// addPerLayer runs the traced iteration tr under the CPU profiler and
// fills in every per-layer metric: span self times, engine and runtime
// costs from the timed iterations, counters and CPU shares from tr.
func addPerLayer(res *childResult, w workload, cfg runConfig, timed []sample, tr *iter) error {
	col := func(f func(s sample) float64) []float64 { return column(timed, f) }
	put := res.put
	for _, name := range spanMetrics {
		put(name+"_s", col(func(s sample) float64 { return s.self[name] })...)
	}
	put("sim.ns_per_event", col(func(s sample) float64 { return 1e9 * ratio(s.loop, float64(s.loopEvents)) })...)
	put("runtime.alloc_B_per_req", col(func(s sample) float64 { return ratio(float64(s.loopRuntime.allocBytes), float64(s.attempted)) })...)
	put("runtime.allocs_per_req", col(func(s sample) float64 { return ratio(float64(s.loopRuntime.allocObjects), float64(s.attempted)) })...)
	put("runtime.alloc_B_per_event", col(func(s sample) float64 { return ratio(float64(s.loopRuntime.allocBytes), float64(s.loopEvents)) })...)
	// The closing runtime.GC is not the iteration's own cycle.
	put("runtime.gc_cycles", col(func(s sample) float64 { return float64(s.iterRuntime.gcCycles) - 1 })...)
	put("runtime.gc_cpu_frac", col(func(s sample) float64 { return ratio(s.iterRuntime.gcCPU, s.iterRuntime.busyCPU) })...)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	profPath := filepath.Join(cfg.out, w.name+".cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	runtime.GC()
	before := yardstick()
	// 1 kHz instead of pprof's 100 Hz, for enough samples from a
	// sub-second iteration. StartCPUProfile then warns that the rate is
	// already set and scales durations by its own 100 Hz; the shares are
	// ratios, so that scale cancels.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	err = iterate(w, tr)
	pprof.StopCPUProfile()
	if cerr := pf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s traced: %w", w.name, err)
	}
	runtime.GC()
	traced := newSample(tr, runtimeCounters{})
	traced.atHostSpeed((before + yardstick()) / 2)

	put("trace_overhead_frac", traced.wall/res.Metrics["wall_s"].Median-1)
	put("bench.yardstick_s", col(func(s sample) float64 { return s.yardstick })...)
	for name, v := range layerCounters(tr) {
		put(name, v)
	}
	planner, err := plannerCounters(tr)
	if err != nil {
		return err
	}
	for name, v := range planner {
		put(name, v)
	}
	calls := mapCalls(tr.regions, tr.rec.reqs)
	if tr.mapper != nil {
		tr.check("layout replay", tr.mapper.calls == int64(len(calls)), "the file system made %d Map calls, the replay %d", tr.mapper.calls, len(calls))
	}
	ns, alloc := replayMap(calls)
	put("layout.map_calls", float64(len(calls)))
	put("layout.map_ns_per_call", ns)
	put("layout.map_alloc_B_per_call", alloc)

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	shares, err := cpuShares(exe, profPath)
	if err != nil {
		return err
	}
	for name, v := range shares {
		put(name, v)
	}

	layers := map[string]summary{}
	for _, m := range perLayer {
		layers[m.Name] = res.Metrics[m.Name]
	}
	data, err := json.MarshalIndent(layers, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, w.name+".layers.json"), data, 0o644)
}
