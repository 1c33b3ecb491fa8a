// Command harlctl drives HARL's off-line analysis pipeline on trace
// files: summarize a trace, divide it into regions, compute the optimal
// Region Stripe Table, and inspect RST files.
//
// Usage:
//
//	harlctl gen      -kind ior|multi -out FILE [-ranks 16] [-req 512K] [-file 2G] [-seed 1]
//	harlctl summary  -trace ior.trace
//	harlctl divide   -trace ior.trace [-threshold 100] [-chunk 64M]
//	harlctl optimize -trace ior.trace -out file.rst [-hservers 6] [-sservers 2] [-probes 1000] [-profile]
//	harlctl show     -rst file.rst
//	harlctl chaos    [-chaos-seed N] [-max-retries N] [-timeout D] [-backoff D] [-hedge-after D]
//	harlctl trace    [-out trace.json] [-metrics-out metrics.txt] [-seed N] [-quick]
//	harlctl metrics  [-seed N] [-quick]
//	harlctl monitor  [-seed N] [-quick] [-shift=false]
//	harlctl health   [-seed N] [-quick] [-shift=false] [-repl]
//	harlctl critpath [-seed N] [-quick] [-out highlighted.json]
//	harlctl whatif   [-seed N] [-quick] [-factor 2] [-drift]
//	harlctl slo      [-seed N] [-chaos-seed N] [-shape double-crash] [-bundle-dir DIR] [-quick]
//	harlctl record   [-seed N] [-bundle-dir bundles] [-quick]
//	harlctl doctor   [-seed N] [-quick] [-control]
//
// The global -cpuprofile FILE and -memprofile FILE flags go before the
// subcommand (harlctl -cpuprofile cpu.out trace ...) and write pprof
// profiles covering the whole invocation; see README "Profiling the
// simulator".
//
// gen writes a synthetic IOSIG-format trace: the uniform IOR workload
// (-req and -file size it) or the paper's four-region non-uniform
// workload (multi), exactly the request plans the simulated runs replay.
// optimize calibrates the cost model against the default simulated device
// profiles (the stand-in for probing one real server of each class);
// -profile prints where the Analysis Phase spent its search budget.
// chaos runs the fault-injection scenario on the simulated testbed:
// IOR-style traffic through the seeded fault schedule, with the given
// client recovery policy, plus the hedged-read straggler scan. The same
// -chaos-seed always replays the same fault sequence.
// trace runs the instrumented IOR baseline through the full HARL pipeline
// and exports the span trace as Chrome trace_event JSON — open the file
// at https://ui.perfetto.dev to see every request's journey client →
// network → disk on the virtual timeline. metrics runs the same workload
// and dumps the metrics registry as text. Both are deterministic: the
// same seed always produces byte-identical output.
// monitor runs the drift scenario — a two-region workload whose second
// region switches request size mid-run (suppress with -shift=false) —
// with the online region-workload monitor attached, and prints its
// layout-health report: per-region drift scores, staleness verdicts and
// replan advice. health is the scriptable variant: one line and exit
// code 0 (on plan) or 1 (some region stale); health -repl reports
// per-region replica/view status (views, serving members, catch-up lag)
// from the replicated demo scenario instead, with exit code 1 if any
// replica group has lost every member.
// slo runs the replicated chaos scenario with the always-on telemetry
// pipeline attached (flight recorder, SLO burn-rate engine, incident
// bundles) and exits 1 if any burn-rate alert fired; record runs the
// fault-free scenario and freezes one manual bundle of the recent past.
// doctor runs the straggler-diagnosis scenario — steady probe traffic
// with the per-server tail-latency sketches and the anomaly detector
// attached, plus (unless -control) a seeded mid-run service-time
// slowdown on one HDD server — and prints the ranked root-cause report
// with the region × server skew heatmap. Exit code 1 when a straggler
// is confirmed, 0 when the run diagnoses clean, so scripts can gate on
// it like health.
// critpath runs the instrumented IOR baseline, extracts the critical
// path from the trace, and prints the blame table — virtual time on the
// blocking chain by kind, server, tier, region and phase; -out also
// exports the trace with the path as a highlight track. whatif replays
// the identical seeded scenario once per counterfactual (each tier,
// the interconnect, the most-blamed server sped up by -factor) and
// prints the measured makespan deltas, ranked; -drift profiles the
// drift scenario's post-shift window instead, including the advisor's
// restripe recommendation as a candidate.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"harl/internal/cost"
	"harl/internal/device"
	"harl/internal/diagnose"
	"harl/internal/experiments"
	"harl/internal/harl"
	"harl/internal/ior"
	"harl/internal/netsim"
	"harl/internal/region"
	"harl/internal/sim"
	"harl/internal/trace"
)

func main() {
	// Global flags precede the subcommand; flag parsing stops at the
	// first non-flag argument, which is the subcommand itself.
	global := flag.NewFlagSet("harlctl", flag.ExitOnError)
	cpuprofile := global.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := global.String("memprofile", "", "write a heap profile to this file on exit")
	global.Parse(os.Args[1:])

	cmd, args := "", []string(nil)
	if rest := global.Args(); len(rest) >= 1 {
		cmd, args = rest[0], rest[1:]
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "harlctl: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "harlctl: %v\n", err)
			os.Exit(1)
		}
	}

	err := dispatch(cmd, args)

	// Flush profiles before any os.Exit path below.
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "harlctl: %v\n", ferr)
		} else {
			runtime.GC()
			if werr := pprof.WriteHeapProfile(f); werr != nil {
				fmt.Fprintf(os.Stderr, "harlctl: %v\n", werr)
			}
			f.Close()
		}
	}

	var code exitCode
	if errors.As(err, &code) {
		// The command already printed its verdict; the code is the
		// scriptable result (health's stale=1, usage=2).
		os.Exit(int(code))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "harlctl %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// exitCode is an error carrying a bare process exit status whose
// explanation is already on the output.
type exitCode int

func (e exitCode) Error() string { return fmt.Sprintf("exit status %d", int(e)) }

// dispatch routes one subcommand; tests drive it directly.
func dispatch(cmd string, args []string) error {
	switch cmd {
	case "gen":
		return cmdGen(args)
	case "summary":
		return cmdSummary(args)
	case "divide":
		return cmdDivide(args)
	case "optimize":
		return cmdOptimize(args)
	case "show":
		return cmdShow(args)
	case "chaos":
		return cmdChaos(args)
	case "trace":
		return cmdTrace(args)
	case "metrics":
		return cmdMetrics(args)
	case "monitor":
		return cmdMonitor(args)
	case "health":
		return cmdHealth(args)
	case "critpath":
		return cmdCritPath(args)
	case "whatif":
		return cmdWhatIf(args)
	case "slo":
		return cmdSLO(args)
	case "record":
		return cmdRecord(args)
	case "doctor":
		return cmdDoctor(args)
	}
	return usage()
}

func usage() error {
	fmt.Fprintln(os.Stderr, "usage: harlctl {gen|summary|divide|optimize|show|chaos|trace|metrics|monitor|health|critpath|whatif|slo|record|doctor} [flags]")
	return exitCode(2)
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "ior", "workload kind: ior or multi")
	out := fs.String("out", "", "output trace file (required)")
	ranks := fs.Int("ranks", 16, "processes")
	req := fs.String("req", "512K", "request size, K/M/G suffixes (ior kind)")
	file := fs.String("file", "2G", "file size, K/M/G suffixes (ior kind)")
	seed := fs.Int64("seed", 1, "generation seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	var tr *trace.Trace
	switch *kind {
	case "ior":
		cfg := ior.Default()
		cfg.Ranks, cfg.Seed = *ranks, *seed
		var err error
		if cfg.RequestSize, err = parseSize(*req); err != nil {
			return err
		}
		if cfg.FileSize, err = parseSize(*file); err != nil {
			return err
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		tr = cfg.Trace()
	case "multi":
		cfg := ior.DefaultMulti()
		cfg.Ranks, cfg.Seed = *ranks, *seed
		if err := cfg.Validate(); err != nil {
			return err
		}
		tr = cfg.Trace()
	default:
		return fmt.Errorf("unknown -kind %q (want ior or multi)", *kind)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tr.Write(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d records to %s\n", tr.Len(), *out)
	return nil
}

// parseSize reads a byte count with an optional K, M or G suffix.
func parseSize(arg string) (int64, error) {
	s, mult := arg, int64(1)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}} {
		if strings.HasSuffix(s, u.suffix) {
			s, mult = strings.TrimSuffix(s, u.suffix), u.mult
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q", arg)
	}
	return n * mult, nil
}

func cmdSummary(args []string) error {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (required)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	s := tr.Summarize()
	fmt.Printf("requests:   %d (%d reads, %d writes)\n", s.Requests, s.Reads, s.Writes)
	fmt.Printf("bytes:      %d (%d read, %d written)\n", s.Bytes, s.BytesRead, s.BytesWrite)
	fmt.Printf("sizes:      min %d  avg %.0f  max %d\n", s.MinSize, s.AvgSize, s.MaxSize)
	fmt.Printf("extent:     %d bytes\n", s.MaxOffset)
	fmt.Printf("open files: %d\n", s.DistinctFDs)
	return nil
}

func cmdDivide(args []string) error {
	fs := flag.NewFlagSet("divide", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (required)")
	threshold := fs.Float64("threshold", region.DefaultThreshold, "CV-change threshold percent")
	chunk := fs.Int64("chunk", region.DefaultChunkSize, "fixed-division chunk bounding the region count")
	adaptive := fs.Bool("adaptive", true, "auto-raise the threshold to bound the region count")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	tr.SortByOffset()
	var regions []region.Region
	used := *threshold
	if *adaptive {
		regions, used = region.DivideAdaptive(tr.Records, *chunk, 0)
	} else {
		regions = region.Divide(tr.Records, *threshold, 0)
	}
	fmt.Printf("%d regions (threshold %.0f%%):\n", len(regions), used)
	for i, r := range regions {
		fmt.Printf("  %3d: %v\n", i, r)
	}
	return nil
}

func cmdOptimize(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	path := fs.String("trace", "", "trace file (required)")
	out := fs.String("out", "", "output RST file (required)")
	hservers := fs.Int("hservers", 6, "HDD servers")
	sservers := fs.Int("sservers", 2, "SSD servers")
	probes := fs.Int("probes", 1000, "calibration probes per device/op/size")
	chunk := fs.Int64("chunk", region.DefaultChunkSize, "region-count bound chunk")
	step := fs.Int64("step", harl.DefaultStep, "Algorithm 2 grid step")
	tiers := fs.Bool("tiers", false, "three-tier mode: hservers HDDs + 1 SATA SSD + 1 PCIe SSD, tiered RST output")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS; the plan is identical at every setting)")
	profile := fs.Bool("profile", false, "print the Analysis Phase search profile (two-tier mode only)")
	fs.Parse(args)
	if *path == "" || *out == "" {
		return fmt.Errorf("-trace and -out are required")
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	if *tiers {
		return optimizeTiered(tr, *out, *hservers, *probes, *chunk, *step)
	}
	params, err := cost.Calibrate(device.DefaultHDD(), device.DefaultSSD(), netsim.GigabitEthernet(),
		*hservers, *sservers, *probes, 1)
	if err != nil {
		return err
	}
	pl := harl.Planner{Params: params, ChunkSize: *chunk, Step: *step, Parallelism: *parallel}
	if *profile {
		pl.Profile = &harl.SearchProfile{}
	}
	plan, err := pl.Analyze(tr)
	if err != nil {
		return err
	}
	if pl.Profile != nil {
		if _, err := pl.Profile.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := plan.RST.Write(f); err != nil {
		return err
	}
	fmt.Printf("threshold used: %.0f%%\n", plan.Threshold)
	for i, r := range plan.Regions {
		fmt.Printf("  region %3d: [%d,%d) avg %.0fB  stripes %v  writes %.0f%%\n",
			i, r.Offset, r.End, r.AvgSize, r.Stripes, r.WriteMix*100)
	}
	fmt.Printf("RST with %d entries written to %s\n", len(plan.RST.Entries), *out)
	return nil
}

// optimizeTiered is the -tiers variant of cmdOptimize: a three-profile
// system (hservers HDDs + one SATA SSD + one PCI-E SSD) analyzed with
// the multi-tier model and optimizer.
func optimizeTiered(tr *trace.Trace, out string, hservers, probes int, chunk, step int64) error {
	profiles := []device.Profile{device.DefaultHDD(), device.DefaultSATASSD(), device.DefaultSSD()}
	counts := []int{hservers, 1, 1}
	params, err := cost.CalibrateTiers(profiles, counts, netsim.GigabitEthernet(), probes, 1)
	if err != nil {
		return err
	}
	plan, err := harl.TieredPlanner{Params: params, ChunkSize: chunk, Step: step}.Analyze(tr)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := plan.RST.Write(f); err != nil {
		return err
	}
	fmt.Printf("threshold used: %.0f%%\n", plan.Threshold)
	for i, e := range plan.RST.Entries {
		fmt.Printf("  region %3d: [%d,%d) stripes %v\n", i, e.Offset, e.End, e.Stripes)
	}
	fmt.Printf("tiered RST with %d entries written to %s\n", len(plan.RST.Entries), out)
	return nil
}

// cmdChaos runs the fault-injection figures on the simulated testbed,
// mirroring how -parallel threads through optimize: the knobs map onto
// experiments.Options and the seed identifies the fault schedule.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	chaosSeed := fs.Int64("chaos-seed", 1, "fault-schedule seed (same seed replays the same faults)")
	seed := fs.Int64("seed", 1, "simulation seed")
	maxRetries := fs.Int("max-retries", 0, "client retry budget (0 = default)")
	timeout := fs.Duration("timeout", 0, "per-request deadline (0 = default)")
	backoff := fs.Duration("backoff", 0, "retry backoff base (0 = default)")
	hedgeAfter := fs.Duration("hedge-after", 0, "hedged-read threshold (0 = default)")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.Parse(args)

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = *seed
	opts.ChaosSeed = *chaosSeed
	opts.Parallelism = *parallel
	if *maxRetries > 0 {
		opts.MaxRetries = *maxRetries
	}
	if *timeout > 0 {
		opts.RequestTimeout = sim.Duration(*timeout)
	}
	if *backoff > 0 {
		opts.Backoff = sim.Duration(*backoff)
	}
	if *hedgeAfter > 0 {
		opts.HedgeAfter = sim.Duration(*hedgeAfter)
	}

	for _, run := range []func(experiments.Options) (*experiments.Table, error){
		experiments.FigChaos, experiments.FigHedge,
	} {
		table, err := run(opts)
		if err != nil {
			return fmt.Errorf("chaos seed %d: %w", *chaosSeed, err)
		}
		fmt.Println(table)
	}
	return nil
}

// traceOptions maps the shared trace/metrics flags onto experiment
// options.
func traceOptions(seed int64, quick bool, parallel int) experiments.Options {
	opts := experiments.DefaultOptions()
	if quick {
		opts = experiments.QuickOptions()
	}
	opts.Seed = seed
	opts.Parallelism = parallel
	return opts
}

// cmdTrace runs the instrumented IOR baseline and exports the span trace
// as Chrome trace_event JSON for Perfetto.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("out", "trace.json", "output Chrome trace_event JSON (open at ui.perfetto.dev)")
	metricsOut := fs.String("metrics-out", "", "also dump the metrics registry to this file")
	seed := fs.Int64("seed", 1, "simulation seed (same seed, byte-identical trace)")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.Parse(args)

	run, err := experiments.TraceIOR(traceOptions(*seed, *quick, *parallel))
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := run.WriteChrome(f); err != nil {
		return err
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		defer mf.Close()
		if err := run.WriteMetrics(mf); err != nil {
			return err
		}
	}
	fmt.Printf("ior: write %.1f MB/s  read %.1f MB/s  (%d regions, ended at %v)\n",
		run.Result.WriteMBs(), run.Result.ReadMBs(), len(run.Plan.RST.Entries), run.End)
	fmt.Printf("%d spans written to %s — open at https://ui.perfetto.dev\n", run.Tracer.Len(), *out)
	return nil
}

// cmdMetrics runs the same instrumented workload and dumps the metrics
// registry — human-readable text by default, Prometheus exposition
// format with -prom. Either way the bytes are deterministic per seed.
func cmdMetrics(args []string) error {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	prom := fs.Bool("prom", false, "export in Prometheus text exposition format")
	fs.Parse(args)

	run, err := experiments.TraceIOR(traceOptions(*seed, *quick, *parallel))
	if err != nil {
		return err
	}
	if *prom {
		return run.Metrics.WriteProm(os.Stdout, run.End)
	}
	return run.WriteMetrics(os.Stdout)
}

// cmdSLO runs the replicated chaos scenario with the always-on telemetry
// pipeline attached — flight recorder, SLO burn-rate engine, incident
// bundles — and reports every alert the burn-rate windows fired. Exit
// code 0 means every objective held; 1 means at least one alert fired
// (with -bundle-dir, each alert's incident bundle is on disk).
func cmdSLO(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault-schedule seed")
	shape := fs.String("shape", "double-crash", "fault shape: crash, double-crash or recovery-overlap")
	bundleDir := fs.String("bundle-dir", "", "write incident bundles under this directory")
	quick := fs.Bool("quick", false, "run at reduced scale (faults may miss the shorter traffic)")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.Parse(args)

	var picked experiments.ReplShape
	for _, s := range experiments.ReplShapes() {
		if string(s) == *shape {
			picked = s
		}
	}
	if picked == "" {
		return fmt.Errorf("unknown -shape %q (want crash, double-crash or recovery-overlap)", *shape)
	}

	opts := traceOptions(*seed, *quick, *parallel)
	opts.ChaosSeed = *chaosSeed
	run, err := experiments.RunSLO(opts, picked, *bundleDir)
	if err != nil {
		return err
	}
	fmt.Printf("slo %s: %d acked, %d failed, %d promotions, %d catch-up records\n",
		picked, run.Result.Acked, run.Result.Failed,
		run.Result.Repl.Promotions, run.Result.Repl.CatchUpRecords)
	fmt.Printf("recorder: %d spans held across %d tracks (%d captured, %d evicted)\n",
		run.Recorder.Held, run.Recorder.Tracks, run.Recorder.Captured, run.Recorder.Evicted)
	for _, a := range run.Alerts {
		fmt.Printf("ALERT %s\n", a.String())
	}
	for _, b := range run.Bundles {
		loc := b.Dir()
		if *bundleDir != "" {
			loc = *bundleDir + "/" + loc
		}
		fmt.Printf("bundle: %s (%d spans)\n", loc, len(b.Spans))
	}
	if n := len(run.Alerts); n > 0 {
		fmt.Printf("SLO BURN: %d alerts fired\n", n)
		return exitCode(1)
	}
	fmt.Println("slo ok: every objective held")
	return nil
}

// cmdRecord runs the fault-free replicated scenario with the flight
// recorder attached and freezes one manual incident bundle at run end —
// "dump the recent past" with no alert required.
func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	bundleDir := fs.String("bundle-dir", "bundles", "write the bundle under this directory")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.Parse(args)

	opts := traceOptions(*seed, *quick, *parallel)
	run, bundle, err := experiments.RunRecord(opts, *bundleDir)
	if err != nil {
		return err
	}
	fmt.Print(bundle.Summary())
	fmt.Printf("recorder: %d spans held across %d tracks (%d captured, %d evicted)\n",
		run.Recorder.Held, run.Recorder.Tracks, run.Recorder.Captured, run.Recorder.Evicted)
	fmt.Printf("bundle written to %s/%s\n", *bundleDir, bundle.Dir())
	return nil
}

// monitorRun executes the drift scenario with the online monitor
// attached; shift selects drifting vs plan-faithful traffic.
func monitorRun(fs *flag.FlagSet, args []string) (*experiments.DriftRun, error) {
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	shift := fs.Bool("shift", true, "shift the workload mid-run (false = plan-faithful control)")
	fs.Parse(args)
	return experiments.RunDrift(traceOptions(*seed, *quick, *parallel), *shift)
}

// cmdMonitor runs the monitored drift scenario and prints the online
// monitor's layout-health report: per-region drift state and replan
// advice.
func cmdMonitor(args []string) error {
	run, err := monitorRun(flag.NewFlagSet("monitor", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	if err := run.Report.WriteText(os.Stdout); err != nil {
		return err
	}
	if lat := run.DetectionLatency(); lat >= 0 {
		fmt.Printf("shift at %v, detected %v later\n", run.ShiftAt, lat)
	}
	return nil
}

// cmdHealth is the scriptable variant: one status line, exit code 0 when
// every region is still on plan and 1 when any region is stale. With
// -repl it instead reports per-region replica/view status from the
// replicated demo scenario (a crashed primary mid-write): exit code 0
// while every replica group still has a serving member, 1 otherwise.
func cmdHealth(args []string) error {
	fs := flag.NewFlagSet("health", flag.ExitOnError)
	replMode := fs.Bool("repl", false, "report per-region replica/view status instead of layout drift")
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	shift := fs.Bool("shift", true, "shift the workload mid-run (false = plan-faithful control)")
	fs.Parse(args)

	if *replMode {
		rep, err := experiments.RunReplStatus(traceOptions(*seed, *quick, *parallel))
		if err != nil {
			return err
		}
		if err := rep.WriteText(os.Stdout); err != nil {
			return err
		}
		if n := rep.Unavailable(); n > 0 {
			fmt.Printf("UNAVAILABLE: %d replica groups have no serving member\n", n)
			return exitCode(1)
		}
		fmt.Println("available: every replica group has a serving member")
		return nil
	}

	run, err := experiments.RunDrift(traceOptions(*seed, *quick, *parallel), *shift)
	if err != nil {
		return err
	}
	stale := 0
	for _, r := range run.Report.Regions {
		if r.Stale {
			stale++
		}
	}
	if stale > 0 {
		fmt.Printf("STALE: %d of %d regions drifted off plan (%d advice entries)\n",
			stale, len(run.Report.Regions), len(run.Report.Advice))
		return exitCode(1)
	}
	fmt.Printf("healthy: %d regions on plan across %d windows\n",
		len(run.Report.Regions), run.Report.Windows)
	return nil
}

// cmdDoctor runs the straggler-diagnosis scenario and prints the ranked
// root-cause report; exit code 1 when a straggler is confirmed.
func cmdDoctor(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	control := fs.Bool("control", false, "fault-free control run (no seeded straggle)")
	fs.Parse(args)

	run, err := experiments.RunDoctor(traceOptions(*seed, *quick, *parallel), !*control)
	if err != nil {
		return err
	}
	fmt.Print(run.Report.Render())
	if n := len(run.Report.Confirmed(diagnose.CauseStraggle)); n > 0 {
		if run.DetectSeconds >= 0 {
			fmt.Printf("CONFIRMED: %d straggler(s); detected %.0fms after injection\n",
				n, run.DetectSeconds*1e3)
		} else {
			fmt.Printf("CONFIRMED: %d straggler(s)\n", n)
		}
		return exitCode(1)
	}
	fmt.Println("clean: no straggler confirmed")
	return nil
}

// cmdCritPath extracts the critical path from the instrumented IOR
// baseline and prints the blame table; -out exports the trace with the
// path as a highlight track for Perfetto.
func cmdCritPath(args []string) error {
	fs := flag.NewFlagSet("critpath", flag.ExitOnError)
	out := fs.String("out", "", "also export the trace with the critical-path highlight track to this file")
	seed := fs.Int64("seed", 1, "simulation seed (same seed, identical path)")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.Parse(args)

	run, err := experiments.TraceIOR(traceOptions(*seed, *quick, *parallel))
	if err != nil {
		return err
	}
	cp, err := run.CritPath()
	if err != nil {
		return err
	}
	if err := cp.Blame.WriteText(os.Stdout); err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := run.Tracer.WriteChromeWith(f, cp.HighlightSpans()); err != nil {
			return err
		}
		fmt.Printf("highlighted trace written to %s — open at https://ui.perfetto.dev\n", *out)
	}
	return nil
}

// cmdWhatIf measures ranked counterfactuals by exact replay: the IOR
// baseline's makespan by default, the drift scenario's post-shift
// window (with the advisor's restripe as a candidate) under -drift.
func cmdWhatIf(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	factor := fs.Float64("factor", 2, "counterfactual speedup factor (> 1)")
	drift := fs.Bool("drift", false, "profile the drift scenario's post-shift window instead of IOR")
	seed := fs.Int64("seed", 1, "simulation seed")
	quick := fs.Bool("quick", false, "run at reduced scale")
	parallel := fs.Int("parallel", 0, "analysis worker count (0 = GOMAXPROCS)")
	fs.Parse(args)

	opts := traceOptions(*seed, *quick, *parallel)
	if *drift {
		dw, err := experiments.RunDriftWhatIf(opts, *factor)
		if err != nil {
			return err
		}
		if err := dw.Report.WriteText(os.Stdout); err != nil {
			return err
		}
		return dw.Run.Report.WriteText(os.Stdout)
	}
	run, err := experiments.TraceIOR(opts)
	if err != nil {
		return err
	}
	rep, err := run.WhatIf(*factor)
	if err != nil {
		return err
	}
	return rep.WriteText(os.Stdout)
}

func cmdShow(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	path := fs.String("rst", "", "RST file (required)")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("-rst is required")
	}
	data, err := os.ReadFile(*path)
	if err != nil {
		return err
	}
	// The header line distinguishes two-tier from tiered tables.
	if rst, err := harl.ReadRST(bytes.NewReader(data)); err == nil {
		fmt.Printf("%-6s %-14s %-14s %-10s %-10s\n", "region", "offset", "end", "H stripe", "S stripe")
		for i, e := range rst.Entries {
			fmt.Printf("%-6d %-14d %-14d %-10s %-10s\n", i, e.Offset, e.End, kb(e.H), kb(e.S))
		}
		return nil
	}
	trst, err := harl.ReadTieredRST(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("not a valid RST or tiered RST: %w", err)
	}
	fmt.Printf("tier server counts: %v\n", trst.Counts)
	fmt.Printf("%-6s %-14s %-14s %s\n", "region", "offset", "end", "per-tier stripes")
	for i, e := range trst.Entries {
		fmt.Printf("%-6d %-14d %-14d %v\n", i, e.Offset, e.End, e.Stripes)
	}
	return nil
}

func kb(b int64) string {
	if b%1024 == 0 {
		return fmt.Sprintf("%dKB", b/1024)
	}
	return fmt.Sprintf("%dB", b)
}
