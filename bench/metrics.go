package main

import (
	"fmt"
	"sort"
)

// metric declares one reported number: its name and unit as printed,
// which direction is better, and, for an end-to-end metric, the share
// of the baseline median by which it may worsen before a change counts
// as a regression. BENCHMARK.json declares the same table; a test keeps
// the two identical.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the numbers a user of the simulator reads: host cost of
// one HARL pipeline run and the memory its state holds, and the
// simulated throughput and latency the paper's Figs. 7, 11 and 12 plot.
// Host metrics come from untraced iterations only, their times scaled
// to the nominal host speed (yardstick.go). Virtual ones are the same in
// every iteration of a seed and vary only with the seed. The virtual
// bounds cover that variation across seeds, since a bound is judged
// over runs of several seeds; -compare holds them to exact equality
// when both sides ran the same seeds (seedExact).
var endToEnd = []metric{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"sim_MB_per_s", "MB/s", "higher", 0.25},
	{"live_heap_MB", "MB", "lower", 0.25},
	{"virt_write_MBps", "MB/s", "higher", 0.05},
	{"virt_read_MBps", "MB/s", "higher", 0.05},
	{"virt_mean_ms", "ms", "lower", 0.05},
	{"virt_p95_ms", "ms", "lower", 0.05},
}

// perLayer is the traced ledger. Each group's comment names the
// end-to-end metric it should move, and on which workload.
var perLayer = []metric{
	// Harness spans around public calls, self time in host seconds.
	// harl.analyze_s moves setup_s and wall_s on ior_fourregion;
	// trace.acquire_s moves setup_s on btio_full.
	{"cluster.new_s", "s", "lower", 0},
	{"cost.calibrate_s", "s", "lower", 0},
	{"trace.acquire_s", "s", "lower", 0},
	{"harl.analyze_s", "s", "lower", 0},
	{"mpiio.create_s", "s", "lower", 0},
	{"sim.run_s", "s", "lower", 0},
	{"verify_s", "s", "lower", 0},
	// Engine: sim_MB_per_s on scale_huge and ior_uniform, flat on btio_full.
	{"sim.events", "count", "lower", 0},
	{"sim.ns_per_event", "ns", "lower", 0},
	{"sim.pool_drops", "count", "lower", 0},
	{"sim.cpu_share", "fraction", "lower", 0},
	// Layout mapping: sim_MB_per_s on scale_huge.
	{"layout.map_calls", "count", "lower", 0},
	{"layout.map_ns_per_call", "ns", "lower", 0},
	{"layout.map_alloc_B_per_call", "B", "lower", 0},
	{"layout.cpu_share", "fraction", "lower", 0},
	// Network.
	{"netsim.transfers", "count", "lower", 0},
	{"netsim.wire_B_per_payload_B", "ratio", "lower", 0},
	{"netsim.max_link_util", "fraction", "higher", 0},
	{"netsim.cpu_share", "fraction", "lower", 0},
	// File system: the virt_* metrics on every workload.
	{"pfs.disk_busy_hdd_s", "s", "lower", 0},
	{"pfs.disk_busy_ssd_s", "s", "lower", 0},
	{"pfs.disk_busy_imbalance", "ratio", "lower", 0},
	{"pfs.mds_lookups", "count", "lower", 0},
	// Failed ops (client errors plus read-back violations) over attempted
	// ops. Every run reports it, traced or not. It is 0 while no op fails,
	// which rules it out as an end-to-end metric; -compare counts any
	// increase as a regression.
	{"failed_frac", "fraction", "lower", 0},
	// Fault path: virt_p95_ms and failed_frac on repl_chaos; its closures
	// sim_MB_per_s on ior_uniform.
	{"pfs.timeouts", "count", "lower", 0},
	{"pfs.retries", "count", "lower", 0},
	{"pfs.hedges", "count", "lower", 0},
	{"pfs.hedge_win_frac", "fraction", "higher", 0},
	{"pfs.dropped", "count", "lower", 0},
	{"pfs.cpu_share", "fraction", "lower", 0},
	// Replication: virt_write_MBps and wall_s on repl_chaos only.
	{"repl.chain_writes", "count", "higher", 0},
	{"repl.quorum_writes", "count", "higher", 0},
	{"repl.forward_B_per_write_B", "ratio", "lower", 0},
	{"repl.promotions", "count", "lower", 0},
	{"repl.catchup_bytes", "B", "lower", 0},
	{"repl.resync_bytes", "B", "lower", 0},
	{"repl.unavailable", "count", "lower", 0},
	{"repl.unverified", "count", "lower", 0},
	{"repl.cpu_share", "fraction", "lower", 0},
	// Middleware and payload paths: wall_s, sim_MB_per_s and
	// live_heap_MB on btio_full and repl_chaos.
	{"mpiio.cpu_share", "fraction", "lower", 0},
	{"device.cpu_share", "fraction", "lower", 0},
	{"trace.cpu_share", "fraction", "lower", 0},
	{"ior.cpu_share", "fraction", "lower", 0},
	{"btio.cpu_share", "fraction", "lower", 0},
	// Planner: setup_s on ior_fourregion. Search counts come from a
	// second Analyze at Parallelism 1, where they are exact.
	{"harl.regions", "count", "lower", 0},
	{"harl.evals", "count", "lower", 0},
	{"harl.cache_hit_frac", "fraction", "higher", 0},
	{"harl.pruned_frac", "fraction", "higher", 0},
	{"harl.shard_balance", "ratio", "lower", 0},
	{"harl.cpu_share", "fraction", "lower", 0},
	{"region.cpu_share", "fraction", "lower", 0},
	{"cost.cpu_share", "fraction", "lower", 0},
	// Observers: wall_s and sim_MB_per_s on ior_observed, flat elsewhere.
	{"obs.spans_captured", "count", "lower", 0},
	{"obs.cpu_share", "fraction", "lower", 0},
	{"telemetry.cpu_share", "fraction", "lower", 0},
	{"monitor.cpu_share", "fraction", "lower", 0},
	{"stats.cpu_share", "fraction", "lower", 0},
	// Go runtime: sim_MB_per_s and live_heap_MB on scale_huge and
	// btio_full. peak_rss_MB is the child process's getrusage maxrss,
	// which every run reports. Where the heap is small it is set by where
	// the collector's cycles happen to land, so it has no bound.
	{"peak_rss_MB", "MB", "lower", 0},
	{"runtime.alloc_B_per_req", "B", "lower", 0},
	{"runtime.allocs_per_req", "count", "lower", 0},
	{"runtime.alloc_B_per_event", "B", "lower", 0},
	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_cpu_frac", "fraction", "lower", 0},
	{"runtime.gc_share", "fraction", "lower", 0},
	{"runtime.malloc_share", "fraction", "lower", 0},
	{"runtime.other_share", "fraction", "lower", 0},
	{"bench.cpu_share", "fraction", "lower", 0},
	// The yardstick's own seconds around each timed iteration: the host
	// speed the run saw, which every host time above is scaled by.
	{"bench.yardstick_s", "s", "lower", 0},
	// Cost of the traced iteration over the untraced median wall_s.
	{"trace_overhead_frac", "fraction", "lower", 0},
}

// seedExact names the metrics that are a pure function of the seed. The
// gate checks that every iteration of a seed reproduces them bit for
// bit, so between runs of the same seeds any worsening is a regression.
var seedExact = map[string]bool{
	"virt_write_MBps": true, "virt_read_MBps": true, "virt_mean_ms": true, "virt_p95_ms": true,
	"failed_frac": true,
}

// lookupMetric finds a declared metric by name.
func lookupMetric(name string) (metric, bool) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

// summary reduces one metric's samples to the median and quartiles, as
// Python's statistics.quantiles(values, n=4) computes them. The median
// is the value a metric reports.
type summary struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func summarize(unit string, xs ...float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	return summary{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(s), Samples: xs}
}

// quartiles implements the "exclusive" method of Python's
// statistics.quantiles with n=4 on sorted data; its middle cut point is
// the median.
func quartiles(s []float64) (q1, med, q3 float64) {
	ld := len(s)
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func (s summary) String() string {
	return fmt.Sprintf("%.6g %s  median=%.6g q1=%.6g q3=%.6g n=%d", s.Median, s.Unit, s.Median, s.Q1, s.Q3, s.N)
}
