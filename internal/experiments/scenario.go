package experiments

import (
	"harl/internal/btio"
	"harl/internal/cluster"
	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/pfs"
)

// The scenario harness. Every driver runs the paper's pipeline through
// it: planner calibrates the cost model and hands back the Analysis
// Phase, build assembles a testbed and places the file (Placing Phase),
// runOn drives a benchmark on it, and backToBack chains one rank's
// requests. RunScaleHuge alone keeps its own loop: it is the
// benchmark's engine-scale workload and has no planner or placement.

// planner returns the option set's HARL planner with its cost model
// calibrated for clusterCfg. A variant adjusts its copy (Threshold,
// MaxRequests, mutated Params) before calling Analyze.
func (o Options) planner(clusterCfg cluster.Config) (harl.Planner, error) {
	tb, err := cluster.New(clusterCfg)
	if err != nil {
		return harl.Planner{}, err
	}
	params, err := tb.Calibrate(o.Probes)
	if err != nil {
		return harl.Planner{}, err
	}
	return harl.Planner{Params: params, ChunkSize: o.ChunkSize, Parallelism: o.Parallelism}, nil
}

// scenario is one run's setup: its testbed, the knobs applied to it
// before any traffic, and the file under test.
type scenario struct {
	cluster cluster.Config
	// profiles, when set, builds a cluster.NewCustom testbed of these
	// servers on cluster's network and seed instead.
	profiles []device.Profile
	ranks    int

	policy     pfs.Policy             // client recovery policy
	adjust     func(*cluster.Testbed) // what-if change to the hardware
	instrument func(*cluster.Testbed) // the run's own observers

	// The file is named name and placed by rst when it is set (a HARL
	// file), else striped plainly by lo.
	name string
	rst  *harl.RST
	lo   layout.Mapper
}

// rig is a built scenario: the testbed, its MPI world and the created
// file.
type rig struct {
	tb *cluster.Testbed
	w  *mpiio.World
	f  mpiio.PhantomFile
}

// build assembles a scenario in a fixed order: testbed, client policy,
// adjust, Options.Attach, instrument, world, then the file, created
// synchronously. The order is part of the behaviour the pinned outcomes
// record: clients copy the policy when the world creates them, and
// observers see the hardware as adjusted.
func (o Options) build(s scenario) (*rig, error) {
	var tb *cluster.Testbed
	var err error
	if s.profiles != nil {
		tb, err = cluster.NewCustom(s.profiles, s.cluster.Network, s.cluster.Seed)
	} else {
		tb, err = cluster.New(s.cluster)
	}
	if err != nil {
		return nil, err
	}
	tb.FS.ClientPolicy = s.policy
	if s.adjust != nil {
		s.adjust(tb)
	}
	if o.Attach != nil {
		o.Attach(tb)
	}
	if s.instrument != nil {
		s.instrument(tb)
	}
	w := mpiio.NewWorld(tb.FS, s.ranks, o.ranksPerNode(s.ranks))
	var f mpiio.PhantomFile
	w.Run(func() {
		if s.rst != nil {
			w.CreateHARL(s.name, s.rst, func(file *mpiio.HARLFile, e error) { f, err = file, e })
		} else {
			w.CreatePlain(s.name, s.lo, func(file *mpiio.PlainFile, e error) { f, err = file, e })
		}
	})
	if err != nil {
		return nil, err
	}
	return &rig{tb: tb, w: w, f: f}, nil
}

// workload is a benchmark bound to its config: the file it creates,
// its rank count and how it drives a placed file.
type workload[R any] struct {
	name  string
	ranks int
	run   func(*mpiio.World, mpiio.PhantomFile) (R, error)
}

func iorWorkload(cfg ior.Config) workload[ior.Result] {
	return workload[ior.Result]{"ior", cfg.Ranks, func(w *mpiio.World, f mpiio.PhantomFile) (ior.Result, error) {
		return ior.Run(w, f, cfg)
	}}
}

func multiWorkload(cfg ior.MultiConfig) workload[ior.Result] {
	return workload[ior.Result]{"multi", cfg.Ranks, func(w *mpiio.World, f mpiio.PhantomFile) (ior.Result, error) {
		return ior.RunMulti(w, f, cfg)
	}}
}

func btioWorkload(cfg btio.Config) workload[btio.Result] {
	return workload[btio.Result]{"btio", cfg.Ranks, func(w *mpiio.World, f mpiio.PhantomFile) (btio.Result, error) {
		return btio.Run(w, f, cfg)
	}}
}

// runOn runs a benchmark on a fresh testbed over the scenario's file,
// which takes the workload's name and rank count.
func runOn[R any](o Options, s scenario, wl workload[R]) (R, error) {
	s.name, s.ranks = wl.name, wl.ranks
	rg, err := o.build(s)
	if err != nil {
		var zero R
		return zero, err
	}
	return wl.run(rg.w, rg.f)
}

// fixed is a scenario on clusterCfg whose file is plainly striped by
// one (h, s) pair.
func fixed(clusterCfg cluster.Config, pair harl.StripePair) scenario {
	return scenario{cluster: clusterCfg, lo: layout.Striping{M: clusterCfg.HServers, N: clusterCfg.SServers, H: pair.H, S: pair.S}}
}

// backToBack issues count requests one after another: op starts
// request k and calls next when it completes, or never, to abandon the
// chain. done, when non-nil, runs after the last request completes.
func backToBack(count int, op func(k int, next func()), done func()) {
	var step func(k int)
	step = func(k int) {
		if k >= count {
			if done != nil {
				done()
			}
			return
		}
		op(k, func() { step(k + 1) })
	}
	step(0)
}
