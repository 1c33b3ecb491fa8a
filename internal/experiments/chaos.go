package experiments

import (
	"bytes"
	"fmt"

	"harl/internal/faults"
	"harl/internal/harl"
	"harl/internal/pfs"
	"harl/internal/sim"
	"harl/internal/stats"
)

// Chaos experiments: IOR-style traffic on a HARL-planned file while a
// seeded fault schedule crashes, drops and slows data servers, comparing
// the client recovery policy (retries, hedged reads) against the legacy
// fire-and-forget protocol. Everything is driven from the option set's
// ChaosSeed, so a failing run is replayed exactly by its seed.

// ChaosResult is one faulted-write run's measurement, chaos or
// replicated. It contains only comparable fields so the determinism and
// r=1 differential tests can assert two runs equal with ==.
type ChaosResult struct {
	// Op accounting: Issued = Acked + Failed + Hung. Hung ops (callbacks
	// swallowed by a crashed or dropping server with no retry policy to
	// recover them) are detected by the watchdog.
	Issued, Acked, Failed, Hung int

	// Goodput counts acked payload bytes over the traffic span.
	AckedBytes int64
	GoodputMBs float64

	// Acked-write latency percentiles, milliseconds.
	P50Ms, P99Ms, MaxMs float64

	// Regions is the HARL plan's region count.
	Regions int

	// Faults is the file system's counter snapshot after the run.
	Faults pfs.FaultStats

	// FaultLog is the fired fault schedule, one event per line.
	FaultLog string

	// WatchdogFired reports that traffic never completed and the hang
	// watchdog ended the measurement window.
	WatchdogFired bool

	// IntegrityViolations counts acked ranges that read back different
	// bytes than were written (or failed to read back at all) after every
	// injected fault was lifted. Must be zero: an ack is a durability
	// promise, faults or not.
	IntegrityViolations int

	// Repl is the file system's replication counter snapshot.
	Repl pfs.ReplStats

	// Verified counts ranges the read-back pass checked byte-exact;
	// Unverified counts ranges whose final overwrite failed or hung —
	// no ack promises their content, so they are skipped but reported
	// rather than silently dropped.
	Verified   int
	Unverified int

	// WriteSeconds is the virtual traffic span of the write passes.
	WriteSeconds float64

	// Events and EndNs fingerprint the whole run (processed events,
	// final virtual time): the r=1 differential requires them identical
	// to an unstamped run's.
	Events uint64
	EndNs  int64
}

// chaosPayload derives a request's bytes from its absolute offset alone,
// so the verification pass can recompute the expected content without
// holding the written data.
func chaosPayload(off, size int64) []byte {
	b := make([]byte, size)
	for i := range b {
		x := off + int64(i)
		b[i] = byte(x ^ x>>8 ^ x>>17 ^ 0x6d)
	}
	return b
}

// chaosFileSize shrinks the option file size for chaos runs: fault
// handling is exercised per request, so a modest file bounds runtime
// while still giving every rank a multi-request slab.
func chaosFileSize(total int64) int64 {
	size := total / 64
	if size < 4<<20 {
		size = 4 << 20
	}
	if size > 32<<20 {
		size = 32 << 20
	}
	return size
}

// chaosRequestSize picks the write request size for a chaos file.
func chaosRequestSize(fileSize int64) int64 {
	if fileSize >= 16<<20 {
		return 256 << 10
	}
	return 64 << 10
}

// chaosConfig sizes the fault window to the expected traffic duration so
// episodes actually overlap the run.
func chaosConfig(fileBytes int64, servers int) faults.Config {
	horizon := sim.BytesDuration(fileBytes, 200e6)
	if horizon < 20*sim.Millisecond {
		horizon = 20 * sim.Millisecond
	}
	if horizon > 400*sim.Millisecond {
		horizon = 400 * sim.Millisecond
	}
	return faults.Config{
		Servers:   servers,
		Horizon:   horizon,
		MinOutage: 10 * sim.Millisecond,
		MaxOutage: horizon / 2,
		MinBout:   10 * sim.Millisecond,
		MaxBout:   horizon / 2,
	}
}

// runChaosIOR writes every rank's slab of a HARL-planned shared file
// once under the client policy, optionally with the chaos suite's mixed
// fault schedule injected, then verifies every acked range.
func runChaosIOR(o Options, policy pfs.Policy, withFaults bool) (ChaosResult, error) {
	return runWrites(o, policy, "chaos", 1, 0, shapeMixed, withFaults)
}

// runReplIOR writes every rank's slab twice — a populate pass and a
// full overwrite pass, so both the chain (fresh extent) and quorum
// (covered overwrite) paths run — under replication factor r and the
// given fault shape, then verifies every range whose last write was
// acked.
func runReplIOR(o Options, policy pfs.Policy, r int, shape ReplShape, withFaults bool) (ChaosResult, error) {
	return runWrites(o, policy, "repl", 2, r, shape, withFaults)
}

// runWrites is the faulted-write runner behind both suites. It plans
// the layout from the workload trace exactly as the fault-free figures
// do, stamps replication factor r on it (replStamp), and writes passes
// full passes over every rank's slab of the placed file under policy,
// with shape's seeded fault schedule injected when withFaults is set.
// Once every fault has lifted it reads back each range whose last
// write was acked and checks it byte-exact: an ack is a durability
// promise, faults or not.
func runWrites(o Options, policy pfs.Policy, name string, passes, r int, shape ReplShape, withFaults bool) (ChaosResult, error) {
	co := o
	co.FileSize = chaosFileSize(o.FileSize)
	reqSize := chaosRequestSize(co.FileSize)
	cfg := co.iorConfig(co.Ranks, reqSize)

	clusterCfg := o.clusterDefault()
	pl, err := o.planner(clusterCfg)
	if err != nil {
		return ChaosResult{}, err
	}
	plan, err := pl.Analyze(cfg.Trace())
	if err != nil {
		return ChaosResult{}, err
	}
	rst := replStamp(&plan.RST, r)

	rg, err := o.build(scenario{cluster: clusterCfg, ranks: cfg.Ranks, policy: policy, name: name, rst: rst})
	if err != nil {
		return ChaosResult{}, err
	}
	tb, f, e := rg.tb, rg.f, rg.tb.Engine

	var sched faults.Schedule
	var flog *faults.Log
	if withFaults {
		fcfg, err := replShapeConfig(shape, co.FileSize, len(tb.FS.Servers()), replGroupsFor(rst, clusterCfg))
		if err != nil {
			return ChaosResult{}, err
		}
		sched = faults.Chaos(o.ChaosSeed, fcfg)
		flog = sched.Apply(e, tb.FS)
	}
	applyAt := e.Now()
	faultsEnd := sched.End()

	ranks := cfg.Ranks
	slab := co.FileSize / int64(ranks)
	opsPerRank := int(slab / reqSize)
	res := ChaosResult{Issued: passes * ranks * opsPerRank, Regions: len(rst.Entries)}

	// Per-range outcome of the passes; the verification pass decides
	// from it which version (if any) an ack promised.
	type opState struct{ acked0, tried1, acked1 bool }
	states := make([]opState, ranks*opsPerRank)
	var latencies []float64

	var checkOp func(i int)
	checkOp = func(i int) {
		if i >= len(states) {
			return
		}
		st := states[i]
		rank := i / opsPerRank
		off := int64(rank)*slab + int64(i%opsPerRank)*reqSize
		var want []byte
		switch {
		case st.acked1:
			want = replPayload(1, off, reqSize)
		case st.tried1:
			// The overwrite was attempted but never acked: the range may
			// hold either version (or a per-stripe mix), so no promise
			// exists. Skipped, but counted — never silently dropped.
			res.Unverified++
			checkOp(i + 1)
			return
		case st.acked0:
			want = replPayload(0, off, reqSize)
		default:
			checkOp(i + 1)
			return
		}
		f.ReadAt(0, off, reqSize, func(data []byte, err error) {
			if err != nil || !bytes.Equal(data, want) {
				res.IntegrityViolations++
			} else {
				res.Verified++
			}
			checkOp(i + 1)
		})
	}
	verifyQueued := false
	queueVerify := func() {
		if verifyQueued {
			return
		}
		verifyQueued = true
		at := applyAt.Add(faultsEnd + 10*sim.Millisecond)
		if now := e.Now(); at < now {
			at = now
		}
		e.ScheduleAt(at, func() { checkOp(0) })
	}

	trafficStart := e.Now()
	var trafficEnd sim.Time
	finishedRanks := 0

	// Without a retry policy a dropped request simply never calls back
	// and its rank's write chain stalls forever; the watchdog bounds the
	// measurement window and flags the hang.
	var wd *faults.Watchdog
	wd = faults.NewWatchdog(e, faultsEnd+30*sim.Second, func() {
		res.WatchdogFired = true
		trafficEnd = e.Now()
		queueVerify()
	})
	rankDone := func() {
		finishedRanks++
		if finishedRanks == ranks {
			trafficEnd = e.Now()
			wd.Disarm()
			queueVerify()
		}
	}

	for rank := 0; rank < ranks; rank++ {
		rank := rank
		e.Schedule(0, func() {
			backToBack(passes*opsPerRank, func(k int, next func()) {
				ver := k / opsPerRank
				idx := rank*opsPerRank + k%opsPerRank
				off := int64(rank)*slab + int64(k%opsPerRank)*reqSize
				if ver == 1 {
					states[idx].tried1 = true
				}
				start := e.Now()
				f.WriteAt(rank, off, replPayload(ver, off, reqSize), func(err error) {
					if err != nil {
						res.Failed++
					} else {
						res.Acked++
						res.AckedBytes += reqSize
						if ver == 0 {
							states[idx].acked0 = true
						} else {
							states[idx].acked1 = true
						}
						latencies = append(latencies, e.Now().Sub(start).Seconds()*1e3)
					}
					next()
				})
			}, rankDone)
		})
	}
	e.Run()

	if !res.WatchdogFired && finishedRanks != ranks {
		return res, fmt.Errorf("%s: %d/%d ranks finished yet the watchdog never fired", name, finishedRanks, ranks)
	}
	res.Hung = res.Issued - res.Acked - res.Failed
	res.WriteSeconds = trafficEnd.Sub(trafficStart).Seconds()
	res.GoodputMBs = stats.Throughput(res.AckedBytes, res.WriteSeconds)
	res.P50Ms = stats.Percentile(latencies, 50)
	res.P99Ms = stats.Percentile(latencies, 99)
	res.MaxMs = stats.Max(latencies)
	res.Faults = tb.FS.Faults
	res.Repl = tb.FS.Repl
	if flog != nil {
		res.FaultLog = flog.String()
	}
	res.Events = e.Processed
	res.EndNs = int64(e.Now().Sub(0))
	return res, nil
}

// FigChaos compares recovery strategies under one seeded fault schedule:
// the fault-free baseline, the legacy protocol with no recovery (hangs),
// bounded retries, and retries plus hedged reads.
func FigChaos(o Options) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Chaos: IOR writes under injected faults (chaos seed %d)", o.ChaosSeed),
		Columns: []string{
			"goodput MB/s", "acked", "failed", "hung",
			"p50 ms", "p99 ms", "retries", "timeouts", "integrity",
		},
	}
	noHedge := o.clientPolicy()
	noHedge.HedgeAfter = 0
	rows := []struct {
		label  string
		policy pfs.Policy
		faults bool
	}{
		{"fault-free", o.clientPolicy(), false},
		{"chaos, no recovery", pfs.Policy{}, true},
		{"chaos, retries", noHedge, true},
		{"chaos, retries+hedge", o.clientPolicy(), true},
	}
	for _, r := range rows {
		res, err := runChaosIOR(o, r.policy, r.faults)
		if err != nil {
			return nil, fmt.Errorf("chaos %q: %w", r.label, err)
		}
		if res.IntegrityViolations > 0 {
			return nil, fmt.Errorf("chaos %q: %d acked ranges failed verification", r.label, res.IntegrityViolations)
		}
		t.Add(r.label,
			res.GoodputMBs, float64(res.Acked), float64(res.Failed), float64(res.Hung),
			res.P50Ms, res.P99Ms,
			float64(res.Faults.Retries), float64(res.Faults.Timeouts),
			float64(res.IntegrityViolations))
	}
	return t, nil
}

// hedgeRun is one straggler-scan measurement; comparable, so the
// fault-free invariance test can assert runs equal with ==.
type hedgeRun struct {
	Reads                      int
	P50Ms, P95Ms, P99Ms, MaxMs float64
	Hedges, HedgeWins          uint64
	Retries, Timeouts          uint64
	Violations                 int
}

// runHedgeScan writes a plain striped file fault-free, makes one HServer
// silently drop a fraction of its requests, and measures per-read
// latency while every rank scans its slab back — with or without hedged
// reads. Drops are recovered either by the hedge (issued at HedgeAfter)
// or by the full request timeout, which is what the hedge's tail-latency
// win is measured against.
func runHedgeScan(o Options, hedged bool, dropP float64) (hedgeRun, error) {
	fileSize := chaosFileSize(o.FileSize)
	const reqSize = 64 << 10

	policy := o.clientPolicy()
	if !hedged {
		policy.HedgeAfter = 0
	}
	ranks := o.Ranks
	s := fixed(o.clusterDefault(), harl.StripePair{H: 64 << 10, S: 64 << 10})
	s.name, s.ranks, s.policy = "hedge", ranks, policy
	rg, err := o.build(s)
	if err != nil {
		return hedgeRun{}, err
	}
	tb, w, f, e := rg.tb, rg.w, rg.f, rg.tb.Engine

	slab := fileSize / int64(ranks)
	opsPerRank := int(slab / reqSize)

	// Rank slabs are whole multiples of the striping round, so every rank
	// starting at its slab head would hit server 0 simultaneously and
	// march across the servers in lockstep, queuing deep enough that
	// healthy-server latency crosses the hedge threshold. Rotating each
	// rank's starting op decorrelates the load: rank r begins one stripe
	// further into its slab than rank r-1 (still covering every op).
	opOffset := func(rank int, base int64, k int) int64 {
		return base + int64((k+rank)%opsPerRank)*reqSize
	}

	// Populate fault-free.
	var writeErr error
	w.Run(func() {
		for r := 0; r < ranks; r++ {
			rank, base := r, int64(r)*slab
			backToBack(opsPerRank, func(k int, next func()) {
				off := opOffset(rank, base, k)
				f.WriteAt(rank, off, chaosPayload(off, reqSize), func(err error) {
					if err != nil {
						writeErr = err
						return
					}
					next()
				})
			}, nil)
		}
	})
	if writeErr != nil {
		return hedgeRun{}, writeErr
	}

	// The straggler: server 0 silently drops a fraction of its requests
	// for the whole read phase.
	if dropP > 0 {
		tb.FS.SetFlaky(0, 0, dropP)
	}

	// Small scans repeat whole passes over the file until the sample count
	// supports a stable p99 (reads are idempotent, so passes just add
	// samples).
	passes := 1
	if total := ranks * opsPerRank; total < 256 {
		passes = (255 + total) / total
	}

	run := hedgeRun{Reads: ranks * opsPerRank * passes}
	var latencies []float64
	var readErr error
	w.Run(func() {
		for r := 0; r < ranks; r++ {
			rank, base := r, int64(r)*slab
			backToBack(opsPerRank*passes, func(k int, next func()) {
				off := opOffset(rank, base, k%opsPerRank)
				start := e.Now()
				f.ReadAt(rank, off, reqSize, func(data []byte, err error) {
					if err != nil {
						readErr = err
						return
					}
					latencies = append(latencies, e.Now().Sub(start).Seconds()*1e3)
					if !bytes.Equal(data, chaosPayload(off, reqSize)) {
						run.Violations++
					}
					next()
				})
			}, nil)
		}
	})
	if readErr != nil {
		return hedgeRun{}, readErr
	}
	if len(latencies) != run.Reads {
		return hedgeRun{}, fmt.Errorf("hedge scan: %d/%d reads completed", len(latencies), run.Reads)
	}
	run.P50Ms = stats.Percentile(latencies, 50)
	run.P95Ms = stats.Percentile(latencies, 95)
	run.P99Ms = stats.Percentile(latencies, 99)
	run.MaxMs = stats.Max(latencies)
	run.Hedges = tb.FS.Faults.Hedges
	run.HedgeWins = tb.FS.Faults.HedgeWins
	run.Retries = tb.FS.Faults.Retries
	run.Timeouts = tb.FS.Faults.Timeouts
	return run, nil
}

// FigHedge measures hedged reads against the straggler scan: identical
// fault-free rows establish that hedging changes nothing when servers
// are healthy, and the dropping-server rows show the tail-latency cut.
func FigHedge(o Options) (*Table, error) {
	t := &Table{
		Title: "Hedge: read tail latency with a request-dropping server",
		Columns: []string{
			"p50 ms", "p95 ms", "p99 ms", "max ms",
			"hedges", "hedge wins", "retries",
		},
	}
	const dropP = 0.5
	rows := []struct {
		label  string
		hedged bool
		dropP  float64
	}{
		{"fault-free, no hedge", false, 0},
		{"fault-free, hedge", true, 0},
		{"drops, no hedge", false, dropP},
		{"drops, hedge", true, dropP},
	}
	for _, r := range rows {
		run, err := runHedgeScan(o, r.hedged, r.dropP)
		if err != nil {
			return nil, fmt.Errorf("hedge %q: %w", r.label, err)
		}
		if run.Violations > 0 {
			return nil, fmt.Errorf("hedge %q: %d reads returned wrong bytes", r.label, run.Violations)
		}
		t.Add(r.label,
			run.P50Ms, run.P95Ms, run.P99Ms, run.MaxMs,
			float64(run.Hedges), float64(run.HedgeWins), float64(run.Retries))
	}
	return t, nil
}
