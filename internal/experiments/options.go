package experiments

import (
	"math/rand"

	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/pfs"
	"harl/internal/sim"
	"harl/internal/trace"
)

// Options scales and seeds the experiment drivers. The paper's runs use a
// 16 GB shared file; the simulated experiments default to a proportional
// 2 GB (load balance and stripe-size effects depend on request size and
// count, not file span), and Quick shrinks further for unit tests.
type Options struct {
	// FileSize is the IOR shared-file size.
	FileSize int64
	// Ranks is the default IOR process count (the paper's is 16).
	Ranks int
	// ComputeNodes hosts the ranks (the paper uses 8).
	ComputeNodes int
	// FixedStripes is the fixed-size layout sweep (paper: 16 KB-2 MB).
	FixedStripes []int64
	// RandomLayouts is how many randomly-chosen stripe configurations to
	// compare against (the paper's "randomly-chosen stripe" strategies).
	RandomLayouts int
	// Probes is the calibration probe count per device/op/size.
	Probes int
	// ChunkSize bounds HARL's region count via the fixed-size division
	// comparison (the paper uses 64 MB on a 16 GB file; scaled runs scale
	// it proportionally so the bound stays ~file/256).
	ChunkSize int64
	// BTIOClass builds the BTIO config for a process count; defaults to
	// class A (the paper's). Quick uses class W.
	BTIOClass func(ranks int) btio.Config
	// BTIOStripes is the fixed-stripe comparison set for Fig. 12 (a
	// subset of FixedStripes keeps the collective-I/O runs tractable).
	BTIOStripes []int64
	// Seed drives every stochastic choice.
	Seed int64
	// Parallelism bounds the Analysis Phase worker pool in every HARL
	// (and CARL) planner the drivers run; 0 means GOMAXPROCS. Plans are
	// bit-identical at every setting, so figure outputs do not depend
	// on it.
	Parallelism int

	// Recovery-policy knobs for the chaos experiments (FigChaos,
	// FigHedge): per-sub-request deadline, retry budget, backoff base and
	// hedged-read threshold, mapped onto pfs.Policy by clientPolicy.
	// Fault-free figures never arm them.
	RequestTimeout sim.Duration
	MaxRetries     int
	Backoff        sim.Duration
	HedgeAfter     sim.Duration

	// ChaosSeed identifies the fault schedule chaos experiments inject;
	// replaying a seed replays the exact fault sequence and metrics.
	ChaosSeed int64

	// Attach, when non-nil, is invoked on every testbed a driver builds,
	// right after construction and before the workload runs. It is the
	// telemetry hook: RunSLO uses it to wire a streaming tracer and the
	// flight recorder into the file system. Attached instrumentation must
	// honor the passive-observer contract — the differential tests verify
	// an attached run stays event-for-event identical to a bare one.
	Attach func(tb *cluster.Testbed)
}

// clusterDefault is the paper's default testbed configured by this
// option set — the single place Seed is applied.
func (o Options) clusterDefault() cluster.Config {
	cfg := cluster.Default()
	cfg.Seed = o.Seed
	return cfg
}

// clusterRatio is clusterDefault with a different HServer:SServer ratio.
func (o Options) clusterRatio(h, s int) cluster.Config {
	cfg := o.clusterDefault()
	cfg.HServers = h
	cfg.SServers = s
	return cfg
}

// clientPolicy maps the option knobs onto the pfs client policy.
func (o Options) clientPolicy() pfs.Policy {
	return pfs.Policy{
		Timeout:    o.RequestTimeout,
		MaxRetries: o.MaxRetries,
		Backoff:    o.Backoff,
		HedgeAfter: o.HedgeAfter,
	}
}

// DefaultOptions mirrors the paper's setup at 1/8 file scale.
func DefaultOptions() Options {
	return Options{
		FileSize:      2 << 30,
		Ranks:         16,
		ComputeNodes:  8,
		FixedStripes:  []int64{16 << 10, 64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20},
		RandomLayouts: 3,
		Probes:        1000,
		ChunkSize:     8 << 20, // 2 GB file / 256, matching 64 MB on 16 GB
		BTIOClass:     btio.ClassA,
		BTIOStripes:   []int64{64 << 10, 256 << 10, 1 << 20},
		Seed:          1,

		RequestTimeout: 150 * sim.Millisecond,
		MaxRetries:     6,
		Backoff:        2 * sim.Millisecond,
		HedgeAfter:     50 * sim.Millisecond,
		ChaosSeed:      1,
	}
}

// QuickOptions shrinks everything for unit tests and -short benches.
func QuickOptions() Options {
	o := DefaultOptions()
	o.FileSize = 128 << 20
	o.FixedStripes = []int64{16 << 10, 64 << 10, 512 << 10}
	o.RandomLayouts = 2
	o.Probes = 200
	o.ChunkSize = 1 << 20
	o.BTIOStripes = []int64{64 << 10, 256 << 10}
	o.BTIOClass = func(ranks int) btio.Config {
		c := btio.ClassW(ranks)
		c.TimeSteps = 25 // 5 snapshots
		return c
	}
	return o
}

// ranksPerNode packs ranks onto the option's compute nodes.
func (o Options) ranksPerNode(ranks int) int {
	per := ranks / o.ComputeNodes
	if per < 1 {
		per = 1
	}
	return per
}

// iorConfig builds the paper's IOR setup for a request size and rank
// count at this option set's scale.
func (o Options) iorConfig(ranks int, requestSize int64) ior.Config {
	return ior.Config{
		Ranks:        ranks,
		RanksPerNode: o.ranksPerNode(ranks),
		RequestSize:  requestSize,
		FileSize:     o.FileSize,
		Random:       true,
		Seed:         o.Seed,
	}
}

// randomPairs draws the "randomly-chosen stripe" layouts: (h, s) pairs on
// Algorithm 2's 4 KB grid up to 2 MB.
func (o Options) randomPairs() []harl.StripePair {
	rng := rand.New(rand.NewSource(o.Seed + 42))
	pairs := make([]harl.StripePair, o.RandomLayouts)
	for i := range pairs {
		h := (rng.Int63n(512) + 1) * 4096
		s := (rng.Int63n(512) + 1) * 4096
		pairs[i] = harl.StripePair{H: h, S: s}
	}
	return pairs
}

// sortedCopy returns an offset-sorted copy of a trace.
func sortedCopy(tr *trace.Trace) *trace.Trace {
	s := &trace.Trace{Records: append([]trace.Record(nil), tr.Records...)}
	s.SortByOffset()
	return s
}
