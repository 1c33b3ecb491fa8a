package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/pfs"
)

// runtimeCounters are the runtime/metrics totals the ledger takes
// differences of.
type runtimeCounters struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, busyCPU                     float64 // seconds; refreshed at each GC
	liveHeap                           uint64  // bytes marked by the last GC; a level, not a total
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocBytes: s[0].Value.Uint64(), allocObjects: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), busyCPU: s[4].Value.Float64() - s[5].Value.Float64(),
		liveHeap: s[6].Value.Uint64(),
	}
}

// minus takes the difference of the totals; liveHeap stays a's.
func (a runtimeCounters) minus(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, busyCPU: a.busyCPU - b.busyCPU,
		liveHeap: a.liveHeap,
	}
}

// mapRegion is one layout a range of the logical file maps through: a
// HARL file's per-region physical file, or scale_huge's single file.
type mapRegion struct {
	offset, end int64
	m           layout.Mapper
}

func rstRegions(rst *harl.RST, hservers, sservers int) []mapRegion {
	out := make([]mapRegion, len(rst.Entries))
	for i, e := range rst.Entries {
		out[i] = mapRegion{offset: e.Offset, end: e.End, m: layout.Striping{M: hservers, N: sservers, H: e.H, S: e.S}}
	}
	return out
}

// mapCall is one Map call the file system makes.
type mapCall struct {
	m         layout.Mapper
	off, size int64
}

// mapCalls turns logical requests into the Map calls pfs makes for
// them: split at region boundaries as mpiio.HARLFile splits them, the
// last region open-ended, one call per region-local piece.
func mapCalls(regions []mapRegion, reqs []request) []mapCall {
	var calls []mapCall
	for _, rq := range reqs {
		for pos, end := rq.off, rq.off+rq.size; pos < end; {
			i := sort.Search(len(regions), func(i int) bool { return regions[i].end > pos })
			i = min(i, len(regions)-1)
			r := regions[i]
			piece := end
			if i < len(regions)-1 {
				piece = min(piece, r.end)
			}
			calls = append(calls, mapCall{r.m, pos - r.offset, piece - pos})
			pos = piece
		}
	}
	return calls
}

var mapSink []layout.SubRequest

// replayMap makes the calls outside the engine and returns their host
// time and heap allocation per call.
func replayMap(calls []mapCall) (nsPerCall, bytesPerCall float64) {
	if len(calls) == 0 {
		return 0, 0
	}
	before := readRuntime()
	t := time.Now()
	for _, c := range calls {
		mapSink = c.m.Map(c.off, c.size)
	}
	ns := time.Since(t).Nanoseconds()
	alloc := readRuntime().minus(before).allocBytes
	n := float64(len(calls))
	return float64(ns) / n, float64(alloc) / n
}

// layerCounters reads the public counters of the traced iteration's
// measured testbed: engine, network, file system, faults, replication.
func layerCounters(it *iter) map[string]float64 {
	e, net, fs := it.tb.Engine, it.tb.Net, it.tb.FS
	_, _, drops := e.PoolStats()
	var hdd, ssd, lo, hi, linkUtil float64
	for _, s := range fs.Servers() {
		b := s.DiskBusy().Seconds()
		if s.Role() == pfs.HServer {
			hdd += b
		} else {
			ssd += b
		}
		if b > 0 {
			if lo == 0 || b < lo {
				lo = b
			}
			hi = max(hi, b)
		}
	}
	for _, n := range it.nodes {
		linkUtil = max(linkUtil, n.TxUtilization(), n.RxUtilization())
	}
	ft, rp := fs.Faults, fs.Repl
	return map[string]float64{
		"sim.events":                  float64(it.virt.Events),
		"sim.pool_drops":              float64(drops),
		"netsim.transfers":            float64(net.Transfers),
		"netsim.wire_B_per_payload_B": ratio(float64(net.BytesMoved), float64(it.payload)),
		"netsim.max_link_util":        linkUtil,
		"pfs.disk_busy_hdd_s":         hdd,
		"pfs.disk_busy_ssd_s":         ssd,
		"pfs.disk_busy_imbalance":     ratio(hi, lo),
		"pfs.mds_lookups":             float64(fs.MDSLookups),
		"pfs.timeouts":                float64(ft.Timeouts),
		"pfs.retries":                 float64(ft.Retries),
		"pfs.hedges":                  float64(ft.Hedges),
		"pfs.hedge_win_frac":          ratio(float64(ft.HedgeWins), float64(ft.Hedges)),
		"pfs.dropped":                 float64(ft.Dropped),
		"repl.chain_writes":           float64(rp.ChainWrites),
		"repl.quorum_writes":          float64(rp.QuorumWrites),
		"repl.forward_B_per_write_B":  ratio(float64(rp.ForwardBytes), float64(it.virt.WriteBytes)),
		"repl.promotions":             float64(rp.Promotions),
		"repl.catchup_bytes":          float64(rp.CatchUpBytes),
		"repl.resync_bytes":           float64(rp.ResyncBytes),
		"repl.unavailable":            float64(rp.Unavailable),
		"repl.unverified":             float64(it.unverified),
		"obs.spans_captured":          float64(it.captured),
	}
}

// plannerCounters reports the traced iteration's plan and search. The
// search counts come from a second Analyze at Parallelism 1, where they
// are exact. The iterations plan on one thread, so the shard balance
// comes from a third Analyze on every CPU, as the planner runs by
// default. It also checks that all three produced the same table.
func plannerCounters(it *iter) (map[string]float64, error) {
	out := map[string]float64{"harl.regions": 0, "harl.evals": 0, "harl.cache_hit_frac": 0, "harl.pruned_frac": 0, "harl.shard_balance": 0}
	if it.plan == nil {
		return out, nil
	}
	analyze := func(parallelism int) (*harl.SearchProfile, error) {
		var prof harl.SearchProfile
		plan, err := harl.Planner{Params: it.params, ChunkSize: chunkSize, Parallelism: parallelism, Profile: &prof}.Analyze(it.trace)
		if err == nil {
			it.check("planner determinism", fmt.Sprint(plan.RST) == fmt.Sprint(it.plan.RST),
				"Parallelism %d planned %v, the iteration %v", parallelism, plan.RST, it.plan.RST)
		}
		return &prof, err
	}
	serial, err := analyze(1)
	if err != nil {
		return nil, err
	}
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	parallel, err := analyze(0)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, err
	}
	t := serial.Totals()
	out["harl.regions"] = float64(len(it.plan.RST.Entries))
	out["harl.evals"] = float64(t.Evals)
	out["harl.cache_hit_frac"] = ratio(float64(t.CacheHits), float64(t.CacheHits+t.Evals))
	out["harl.pruned_frac"] = ratio(float64(t.Pruned), float64(t.Candidates))
	out["harl.shard_balance"] = parallel.ShardBalance()
	return out, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuShares splits a CPU profile's samples by the innermost frame:
// harl/internal/<pkg> into <pkg>.cpu_share where the ledger declares
// one, package main into bench.cpu_share, and runtime and standard
// library frames into GC (any GC frame on the stack), allocation
// (mallocgc on the stack) and the rest. Internal packages without a
// share of their own also count as the rest. It reads the stacks from
// `go tool pprof -traces`.
func cpuShares(exe, profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", exe, profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	shares := map[string]float64{}
	for _, m := range perLayer {
		if strings.HasSuffix(m.Name, "_share") {
			shares[m.Name] = 0
		}
	}
	var total float64
	var frames []string
	var value float64
	flush := func() {
		if len(frames) > 0 {
			shares[classify(frames, shares)] += value
			total += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			value, fields = d.Seconds(), fields[1:]
		}
		frames = append(frames, fields[0])
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s has no samples", profile)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// classify names the share a sample's stack (innermost frame first)
// counts toward.
func classify(frames []string, shares map[string]float64) string {
	leaf := frames[0]
	if pkg, ok := strings.CutPrefix(leaf, "harl/internal/"); ok {
		name := pkg[:strings.IndexAny(pkg, "./")] + ".cpu_share"
		if _, declared := shares[name]; declared {
			return name
		}
		return "runtime.other_share"
	}
	if strings.HasPrefix(leaf, "main.") {
		return "bench.cpu_share"
	}
	for _, f := range frames {
		if f == "gcWriteBarrier" || strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.wbBuf") ||
			strings.HasPrefix(f, "runtime.bgsweep") || strings.HasPrefix(f, "runtime.sweepone") || strings.HasPrefix(f, "runtime.bgscavenge") {
			return "runtime.gc_share"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "runtime.malloc_share"
		}
	}
	return "runtime.other_share"
}
