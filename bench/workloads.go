package main

import (
	"encoding/binary"
	"fmt"
	"math"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/faults"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/monitor"
	"harl/internal/mpiio"
	"harl/internal/netsim"
	"harl/internal/obs"
	"harl/internal/pfs"
	"harl/internal/sim"
	"harl/internal/stats"
	"harl/internal/telemetry"
	"harl/internal/trace"
)

// Inputs shared by the HARL workloads, after the paper's Section IV: a
// 6 HServer + 2 SServer file system on Gigabit Ethernet, applications on
// 8 compute nodes, and the 64 MB region-division chunk of its 16 GB runs.
const (
	probes    = 1000 // calibration probes per device, op and size, as the experiment drivers use
	chunkSize = 64 << 20
)

// workload is one benchmark input. run performs one iteration; every
// iteration of a seed must reproduce the same virtual outcome.
type workload struct {
	name string
	// reference names the workload whose virtual outcome this one must
	// reproduce exactly; empty for none.
	reference string
	run       func(it *iter) error
}

// workloads lists the benchmark's workloads. README.md records why each
// was chosen and which layers it stresses.
var workloads = []workload{
	{name: "ior_uniform", run: func(it *iter) error { return runIOR(it, false) }},
	{name: "ior_fourregion", run: runFourRegion},
	{name: "btio_full", run: runBTIO},
	{name: "scale_huge", run: runScaleHuge},
	{name: "repl_chaos", run: runReplChaos},
	{name: "ior_observed", reference: "ior_uniform", run: func(it *iter) error { return runIOR(it, true) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// virtual is an iteration's simulated outcome. Every field is a pure
// function of the seed, so all iterations of one seed must be equal.
type virtual struct {
	WriteBytes, ReadBytes int64
	WriteTime, ReadTime   sim.Duration
	MeanMs, P95Ms         float64
	Samples               int
	Events                uint64
	End                   sim.Time
	Layout                string
}

// iter is one iteration of a workload: its inputs, and everything the
// gate and the per-layer ledger read once it has run.
type iter struct {
	seed   int64
	small  bool // test-sized inputs
	traced bool // the extra per-layer iteration
	id     int
	spans  *spanLog

	rec     recorder
	tb      *cluster.Testbed // the measured testbed
	nodes   []*netsim.Node   // every network endpoint of the measured testbed
	params  cost.Params
	trace   *trace.Trace
	plan    *harl.Plan      // nil without an Analysis Phase
	mapper  *countingMapper // traced scale_huge only
	regions []mapRegion     // the layouts requests map through

	virt        virtual
	payload     int64           // simulated payload bytes the measured loop moved
	loop        runtimeCounters // runtime counters the measured loop moved
	loopEvents  uint64
	writeEvents uint64 // scale_huge: events when the write phase drained
	violations  int    // acked ranges that read back wrong
	unverified  int    // ranges whose overwrite was tried but never acked
	captured    uint64 // spans the observer set captured
	failures    []string
}

func newIter(seed int64, id int, spans *spanLog) *iter {
	return &iter{seed: seed, id: id, spans: spans}
}

// span runs fn inside a named harness span.
func (it *iter) span(name string, fn func() error) error {
	i := it.spans.begin(it.id, name)
	defer it.spans.end(i)
	return fn()
}

// check records a failed gate check.
func (it *iter) check(name string, ok bool, format string, args ...any) {
	if !ok {
		it.failures = append(it.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// newTestbed builds the paper's default testbed on the iteration's seed.
func (it *iter) newTestbed() (*cluster.Testbed, error) {
	cfg := cluster.Default()
	cfg.Seed = it.seed
	var tb *cluster.Testbed
	err := it.span("cluster.new", func() (err error) { tb, err = cluster.New(cfg); return })
	return tb, err
}

// analyze is HARL's Analysis Phase: calibrate the cost model on the
// measured testbed's hardware, acquire the workload's trace, plan.
func (it *iter) analyze(acquire func() (*trace.Trace, error)) error {
	if err := it.span("cost.calibrate", func() (err error) { it.params, err = it.tb.Calibrate(probes); return }); err != nil {
		return err
	}
	if err := it.span("trace.acquire", func() (err error) { it.trace, err = acquire(); return }); err != nil {
		return err
	}
	pl := harl.Planner{Params: it.params, ChunkSize: chunkSize}
	return it.span("harl.analyze", func() (err error) { it.plan, err = pl.Analyze(it.trace); return })
}

// place is HARL's Placing Phase: one physical file per RST region,
// opened on every rank.
func (it *iter) place(w *mpiio.World, name string, rst *harl.RST) (*mpiio.HARLFile, error) {
	var f *mpiio.HARLFile
	err := it.span("mpiio.create", func() error {
		var cerr error
		w.Run(func() {
			w.CreateHARL(name, rst, func(file *mpiio.HARLFile, err error) { f, cerr = file, err })
		})
		return cerr
	})
	h, s := it.tb.FS.CountRoles()
	it.regions = rstRegions(rst, h, s)
	it.addNodes(it.tb)
	for r := 0; r < w.Ranks(); r++ {
		it.nodes = append(it.nodes, w.Client(r).Node()) // ranks on one node share it
	}
	return f, err
}

// addNodes adds the testbed's server and metadata links.
func (it *iter) addNodes(tb *cluster.Testbed) {
	for _, s := range tb.FS.Servers() {
		it.nodes = append(it.nodes, s.Node())
	}
	it.nodes = append(it.nodes, tb.Net.Node("mds"))
}

// file wraps f so the recorder sees every request.
func (it *iter) file(f mpiio.PhantomFile) timedFile {
	return timedFile{PhantomFile: f, rec: &it.rec}
}

// measure runs the measured event loop inside the sim.run span. Every
// request goes out inside it, so it readies the recorder.
func (it *iter) measure(fn func() error) error {
	it.rec.engine, it.rec.keepReqs = it.tb.Engine, it.traced
	events := it.tb.Engine.Processed
	before := readRuntime()
	err := it.span("sim.run", fn)
	it.loop = readRuntime().minus(before)
	it.loopEvents = it.tb.Engine.Processed - events
	return err
}

// finish stamps the virtual outcome once the measured loop has drained
// and runs the checks every workload shares. writeBytes and readBytes
// are the bytes the workload sets out to move. Every one must be
// requested, and every request must complete: acked, or failed and
// counted in failed_frac.
func (it *iter) finish(writeBytes, readBytes int64, writeTime, readTime sim.Duration, layoutDesc string) {
	_ = it.span("verify", func() error {
		e := it.tb.Engine
		it.payload = writeBytes + readBytes
		it.virt = virtual{
			WriteBytes: writeBytes, ReadBytes: readBytes,
			WriteTime: writeTime, ReadTime: readTime,
			Samples: len(it.rec.latMs), Events: e.Processed, End: e.Now(), Layout: layoutDesc,
		}
		if len(it.rec.latMs) > 0 {
			it.virt.MeanMs = stats.Mean(it.rec.latMs)
			it.virt.P95Ms = stats.Percentile(it.rec.latMs, 95)
		}
		it.check("quiesce", e.Pending() == 0, "%d events still queued", e.Pending())
		r := &it.rec
		it.check("workload bytes", r.issued == it.payload, "%d bytes requested of the workload's %d", r.issued, it.payload)
		it.check("acked bytes", r.acked == r.issued-r.failedBytes, "%d bytes acked of %d requested, %d of them by failed ops", r.acked, r.issued, r.failedBytes)
		if it.plan != nil {
			rst := &it.plan.RST
			err := rst.Validate()
			it.check("rst valid", err == nil, "%v", err)
			it.check("rst covers file", rst.Extent() >= it.rec.maxEnd, "extent %d, requests reach %d", rst.Extent(), it.rec.maxEnd)
		}
		return nil
	})
}

// runIOR is the paper's Section IV-B IOR through the full HARL pipeline:
// 16 ranks on 8 nodes, 512 KB random requests in a 16 GB shared file,
// write phase then read phase, phantom payloads. observed attaches the
// always-on observer set, which must leave the outcome unchanged.
func runIOR(it *iter, observed bool) error {
	cfg := ior.Default()
	cfg.Seed = it.seed
	if it.small {
		cfg.FileSize = 128 << 20
	}
	return runIORFamily(it, cfg.Trace, func(w *mpiio.World, f mpiio.PhantomFile) (ior.Result, error) {
		return ior.Run(w, f, cfg)
	}, observed)
}

// runFourRegion is Fig. 11's modified IOR: 256 MB, 1 GB, 2 GB and 4 GB
// regions accessed with 64 KB, 256 KB, 512 KB and 2 MB requests.
func runFourRegion(it *iter) error {
	cfg := ior.DefaultMulti()
	cfg.Seed = it.seed
	if it.small {
		for i := range cfg.Regions {
			cfg.Regions[i].Size /= 32
		}
	}
	return runIORFamily(it, cfg.Trace, func(w *mpiio.World, f mpiio.PhantomFile) (ior.Result, error) {
		return ior.RunMulti(w, f, cfg)
	}, false)
}

// The IOR workloads run 16 ranks, two per compute node.
const (
	iorRanks   = 16
	iorPerNode = 2
)

func runIORFamily(it *iter, acquire func() *trace.Trace, run func(*mpiio.World, mpiio.PhantomFile) (ior.Result, error), observed bool) error {
	var err error
	if it.tb, err = it.newTestbed(); err != nil {
		return err
	}
	if err := it.analyze(func() (*trace.Trace, error) { return acquire(), nil }); err != nil {
		return err
	}
	var tel *telemetry.T
	if observed {
		// Before the file is created, so its per-region counters resolve.
		if tel, err = observe(it.tb); err != nil {
			return err
		}
	}
	w := mpiio.NewWorld(it.tb.FS, iorRanks, iorPerNode)
	f, err := it.place(w, "ior", &it.plan.RST)
	if err != nil {
		return err
	}
	if observed {
		mon, err := monitor.New(it.tb.Engine, it.plan.Fingerprint, it.params, monitor.Config{})
		if err != nil {
			return err
		}
		if err := f.AttachMonitor(mon); err != nil {
			return err
		}
		it.tb.FS.SetTierObserver(mon)
	}
	var res ior.Result
	if err := it.measure(func() (err error) { res, err = run(w, it.file(f)); return }); err != nil {
		return err
	}
	if tel != nil {
		it.captured = tel.Recorder().Stats().Captured
	}
	it.finish(res.WriteBytes, res.ReadBytes, res.WriteTime, res.ReadTime, fmt.Sprint(it.plan.RST.Entries))
	return nil
}

// observe attaches the always-on observer set: a streaming tracer into
// the telemetry flight recorder, a metrics registry, and the tail-latency
// sketches on every server and network link.
func observe(tb *cluster.Testbed) (*telemetry.T, error) {
	tel, err := telemetry.New(telemetry.Config{Seed: tb.Config.Seed, RingSpans: 512})
	if err != nil {
		return nil, err
	}
	tb.FS.Instrument(obs.NewStreamTracer(tb.Engine, tel), obs.NewRegistry())
	tb.FS.AttachSketches(obs.NewSketchSet(tb.Engine, obs.SketchConfig{}))
	return tel, nil
}

// runBTIO is NPB BTIO class A on 16 ranks, full subtype (two-phase
// collective I/O) with real payloads and verification. Its trace comes
// from a traced first run on the default 64 KB layout, as the paper's
// Tracing Phase collects it.
func runBTIO(it *iter) error {
	cfg := btio.ClassA(16)
	if it.small {
		// Class A's 10.5 MB snapshots keep every link saturated during
		// the shuffle, which makes the virtual times independent of the
		// order mpiio.CollectiveWrite sends its messages in; that order
		// comes from map iteration, and class S's tiny snapshots expose it.
		cfg.TimeSteps = 4 * cfg.Interval
	}
	cfg.Verify = true
	var err error
	if it.tb, err = it.newTestbed(); err != nil {
		return err
	}
	if err := it.analyze(func() (*trace.Trace, error) { return traceBTIO(it, cfg) }); err != nil {
		return err
	}
	w := mpiio.NewWorld(it.tb.FS, cfg.Ranks, cfg.RanksPerNode)
	f, err := it.place(w, "btio", &it.plan.RST)
	if err != nil {
		return err
	}
	var res btio.Result
	if err := it.measure(func() (err error) { res, err = btio.Run(w, it.file(f), cfg); return }); err != nil {
		return err
	}
	it.check("btio verify", res.Verified, "read-back differs from the written pattern")
	it.finish(res.WriteBytes, res.ReadBytes, res.WriteTime, res.ReadTime, fmt.Sprint(it.plan.RST.Entries))
	return nil
}

// traceBTIO runs BTIO once on a fresh testbed with the default 64 KB
// layout, recording the post-aggregation request stream.
func traceBTIO(it *iter, cfg btio.Config) (*trace.Trace, error) {
	tb, err := it.newTestbed()
	if err != nil {
		return nil, err
	}
	h, s := tb.FS.CountRoles()
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	collector := trace.NewCollector()
	var traced *mpiio.TracingFile
	err = it.span("mpiio.create", func() error {
		var cerr error
		w.Run(func() {
			w.CreatePlain("btio", layout.Fixed(h, s, 64<<10), func(f *mpiio.PlainFile, err error) {
				if err != nil {
					cerr = err
					return
				}
				traced = w.Trace(f, collector)
			})
		})
		return cerr
	})
	if err != nil {
		return nil, err
	}
	cfg.Verify = false
	if _, err := btio.Run(w, traced, cfg); err != nil {
		return nil, err
	}
	return collector.Trace(), nil
}

// scale_huge mirrors experiments.RunScaleHuge: 768 HDD + 256 SSD servers,
// 256 client streams of 400 sequential 256 KB phantom writes on fixed
// 64 KB stripes. The benchmark adds a read-back of the same streams.
const (
	hugeHServers = 768
	hugeSServers = 256
	hugeClients  = 256
	hugeWrites   = 400
	hugeRequest  = 256 << 10
	hugeStripe   = 64 << 10
)

// runScaleHuge has no Analysis Phase: it stresses the engine, layout
// mapping at 1024 servers and the pfs client fan-out. The write phase
// issues exactly RunScaleHuge's event sequence.
func runScaleHuge(it *iter) error {
	hs, ss, clients, writes := hugeHServers, hugeSServers, hugeClients, hugeWrites
	if it.small {
		// Enough work for the traced iteration's profile to take samples.
		hs, ss, clients, writes = 6, 2, 16, 200
	}
	profiles := make([]device.Profile, 0, hs+ss)
	for i := 0; i < hs+ss; i++ {
		if i < hs {
			profiles = append(profiles, device.DefaultHDD())
		} else {
			profiles = append(profiles, device.DefaultSSD())
		}
	}
	if err := it.span("cluster.new", func() (err error) {
		it.tb, err = cluster.NewCustom(profiles, netsim.GigabitEthernet(), it.seed)
		return
	}); err != nil {
		return err
	}
	tb, e := it.tb, it.tb.Engine
	st := layout.Striping{M: hs, N: ss, H: hugeStripe, S: hugeStripe}
	var lo layout.Mapper = st
	if it.traced {
		it.mapper = &countingMapper{Mapper: st}
		lo = it.mapper
	}
	it.regions = []mapRegion{{end: math.MaxInt64, m: st}}
	it.addNodes(tb)

	span := int64(writes) * hugeRequest
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
			e.Stop()
		}
	}
	// stream issues one client's requests over its span of the file, one
	// in flight at a time.
	stream := func(h *pfs.File, base int64, op device.Op) {
		var issued int64
		var step func()
		step = func() {
			if issued == span {
				return
			}
			off := base + issued
			issued += hugeRequest
			t := it.rec.begin(off, hugeRequest)
			done := func(err error) {
				it.rec.end(t, hugeRequest, err)
				if err != nil {
					fail(err)
					return
				}
				step()
			}
			if op == device.Write {
				h.WriteZeros(off, hugeRequest, done)
			} else {
				h.ReadDiscard(off, hugeRequest, done)
			}
		}
		step()
	}

	handles := make([]*pfs.File, clients)
	var writeEnd, readStart sim.Time
	err := it.measure(func() error {
		tb.FS.NewClient("client0").Create("huge", lo, func(_ *pfs.File, err error) {
			if err != nil {
				fail(err)
				return
			}
			for i := range handles {
				i := i
				c := tb.FS.NewClient(fmt.Sprintf("client%d", i+1))
				it.nodes = append(it.nodes, c.Node())
				c.Open("huge", func(h *pfs.File, err error) {
					if err != nil {
						fail(err)
						return
					}
					handles[i] = h
					stream(h, int64(i)*span, device.Write)
				})
			}
		})
		writeEnd = e.Run()
		it.writeEvents = e.Processed
		if firstErr != nil {
			return firstErr
		}
		readStart = e.Now()
		for i, h := range handles {
			stream(h, int64(i)*span, device.Read)
		}
		e.Run()
		return firstErr
	})
	if err != nil {
		return err
	}
	total := int64(clients) * span
	it.finish(total, total, writeEnd.Sub(0), e.Now().Sub(readStart), st.String())
	return nil
}

// repl_chaos inputs: a 128 MB file written by 16 ranks in 256 KB
// requests, and the client recovery policy of the experiment drivers'
// DefaultOptions.
var replPolicy = pfs.Policy{
	Timeout:    150 * sim.Millisecond,
	MaxRetries: 6,
	Backoff:    2 * sim.Millisecond,
	HedgeAfter: 50 * sim.Millisecond,
}

// runReplChaos writes an r=2 replicated HARL file twice — a populate
// pass on fresh extents (chain writes), then an overwrite pass (quorum
// writes) — while one seeded HServer crash takes a replica down. The
// crash lands in the populate pass and recovers after both passes, so
// the overwrite pass runs degraded and the recovered member catches up
// from the log or a full image. Then every rank reads back its slab and
// checks each acked range byte for byte (read-your-acked-writes). A
// failed write counts in failed_frac, and the read-back skips the ranges
// no ack covers, so its bytes are the ranges it reads.
//
// Crashes target HServers only: the plan keeps most of each request on
// them, so every seed exercises the same protocol paths, where an SSD
// victim would take a different recovery path on some seeds and make
// the virtual results bimodal.
func runReplChaos(it *iter) error {
	cfg := ior.Config{Ranks: iorRanks, RanksPerNode: iorPerNode, RequestSize: 256 << 10, FileSize: 128 << 20, Seed: it.seed}
	if it.small {
		cfg.FileSize = 16 << 20
	}
	var err error
	if it.tb, err = it.newTestbed(); err != nil {
		return err
	}
	tb, e := it.tb, it.tb.Engine
	if err := it.analyze(func() (*trace.Trace, error) { return cfg.Trace(), nil }); err != nil {
		return err
	}
	rst := harl.RST{Entries: append([]harl.RSTEntry(nil), it.plan.RST.Entries...)}
	for i := range rst.Entries {
		rst.Entries[i].R = 2
	}
	tb.FS.ClientPolicy = replPolicy // clients copy it when the world creates them
	w := mpiio.NewWorld(tb.FS, cfg.Ranks, cfg.RanksPerNode)
	hf, err := it.place(w, "repl", &rst)
	if err != nil {
		return err
	}
	f := it.file(hf)

	// The fault window is sized to the traffic: the crash starts within
	// the time the populate pass takes at ~128 MB/s and lasts three times
	// as long, past the end of the overwrite pass. HServers come first in
	// the server order, so Servers: h confines victims to them.
	h, _ := tb.FS.CountRoles()
	horizon := sim.BytesDuration(cfg.FileSize, 128<<20)
	faults.Chaos(it.seed, faults.Config{
		Servers: h, Horizon: horizon,
		Crashes: 1, FlakyRuns: -1, Straggles: -1,
		MinOutage: 3 * horizon, MaxOutage: 3 * horizon,
	}).Apply(e, tb.FS)

	slab := cfg.FileSize / int64(cfg.Ranks)
	ops := int(slab / cfg.RequestSize)
	type state struct{ acked0, tried1, acked1 bool }
	states := make([]state, cfg.Ranks*ops)
	var writeStart, writeEnd, readStart, readEnd sim.Time
	var readBytes int64

	// eachRank runs step(rank, k) closed-loop for k in [0, n) on every
	// rank and calls done when the last rank finishes.
	eachRank := func(n int, step func(rank, k int, next func()), done func()) {
		left := cfg.Ranks
		for r := 0; r < cfg.Ranks; r++ {
			r := r
			var next func(k int)
			next = func(k int) {
				if k == n {
					if left--; left == 0 {
						done()
					}
					return
				}
				step(r, k, func() { next(k + 1) })
			}
			e.Schedule(0, func() { next(0) })
		}
	}
	write := func(rank, k int, next func()) {
		ver, i := k/ops, rank*ops+k%ops
		off := int64(rank)*slab + int64(k%ops)*cfg.RequestSize
		if ver == 1 {
			states[i].tried1 = true
		}
		f.WriteAt(rank, off, payload(ver, off, cfg.RequestSize), func(err error) {
			if err == nil {
				states[i].acked0 = states[i].acked0 || ver == 0
				states[i].acked1 = states[i].acked1 || ver == 1
			}
			next()
		})
	}
	read := func(rank, k int, next func()) {
		i := rank*ops + k
		off := int64(rank)*slab + int64(k)*cfg.RequestSize
		ver := 0
		switch st := states[i]; {
		case st.acked1:
			ver = 1
		case st.tried1:
			// The overwrite was tried but never acked: the range may hold
			// either version, so no ack promises its content.
			it.unverified++
			next()
			return
		case !st.acked0:
			next()
			return
		}
		readBytes += cfg.RequestSize
		f.ReadAt(rank, off, cfg.RequestSize, func(data []byte, err error) {
			if err == nil && !holds(data, ver, off) {
				it.violations++
			}
			next()
		})
	}

	err = it.measure(func() error {
		writeStart = e.Now()
		eachRank(2*ops, write, func() { writeEnd = e.Now() })
		e.Run() // both passes, the crash, the recovery and the catch-up
		it.check("replicas converged", converged(tb.FS, harl.BuildR2F("repl", &rst), len(rst.Entries)), "a replica is dead, unchained or lagging after the run")
		readStart = e.Now()
		eachRank(ops, read, func() { readEnd = e.Now() })
		e.Run()
		return nil
	})
	if err != nil {
		return err
	}
	it.check("read-your-acked-writes", it.violations == 0, "%d acked ranges read back wrong", it.violations)
	it.finish(2*cfg.FileSize, readBytes, writeEnd.Sub(writeStart), readEnd.Sub(readStart), fmt.Sprint(rst.Entries))
	return nil
}

// converged reports whether every member of every replica group of the
// file's regions is alive, chained and caught up.
func converged(fs *pfs.FS, r2f *harl.R2F, regions int) bool {
	for i := 0; i < regions; i++ {
		for _, st := range fs.ReplStatus(r2f.File(i)) {
			for _, m := range st.Members {
				if !m.Alive || !m.Chained || m.Lag > 0 {
					return false
				}
			}
		}
	}
	return true
}

// passMask distinguishes the two write passes; its bytes are nonzero and
// differ between passes, so every byte of the passes differs.
var passMask = [2]uint64{0x6d6d6d6d6d6d6d6d, 0xb2b2b2b2b2b2b2b2}

// payload builds write pass ver's bytes for a range: each 8-byte word
// holds its own absolute offset XOR the pass mask, so the read-back
// recomputes them from the offset alone and misplaced data never
// matches. Ranges are 8-byte aligned.
func payload(ver int, off, size int64) []byte {
	b := make([]byte, size)
	for i := int64(0); i < size; i += 8 {
		binary.LittleEndian.PutUint64(b[i:], uint64(off+i)^passMask[ver])
	}
	return b
}

// holds reports whether data is write pass ver's payload for the range
// at off.
func holds(data []byte, ver int, off int64) bool {
	for i := 0; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) != uint64(off+int64(i))^passMask[ver] {
			return false
		}
	}
	return len(data)%8 == 0
}
