// Command harlctl drives HARL's off-line analysis pipeline on trace
// files: summarize a trace, divide it into regions, compute the optimal
// Region Stripe Table, and inspect RST files. It also regenerates the
// paper's evaluation figures and runs the observability scenarios on the
// simulated testbed.
//
// Usage:
//
//	harlctl gen      -kind ior|multi -out FILE [-ranks 16] [-req 512K] [-file 2G] [-seed 1]
//	harlctl summary  -trace ior.trace
//	harlctl divide   -trace ior.trace [-threshold 0] [-chunk 64M]
//	harlctl optimize -trace ior.trace -out file.rst [-hservers 6] [-sservers 2] [-tiers] [-probes 1000] [-parallel 0] [-profile]
//	harlctl show     -rst file.rst
//	harlctl fig      [-quick] [-seed N] [-chaos-seed N] [-parallel 1] [-max-retries N]
//	                 [-timeout D] [-backoff D] [-hedge-after D] [name ...]
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
// -tiers plans hservers HDDs, one SATA SSD and one PCIe SSD into a tiered
// RST instead, and -profile prints where the Analysis Phase spent its
// search budget in either mode.
// fig regenerates the named figures of the registry in argument order
// (all of them, in registry order, when no name is given: 1a, 1b, 7-12,
// the ablations, threetier, baselines, chaos, hedge, repl, breakdown,
// drift, critpath, scalehuge, slo, doctor) and prints each as a text
// table. -parallel fans the figures out over N workers (0 = GOMAXPROCS,
// 1 = serial); each figure is an independent simulated world, so the
// tables are byte-identical at any worker count. -chaos-seed replays an
// exact fault schedule, and the retry knobs override the client recovery
// policy the chaos figures use: fig chaos hedge runs IOR-style traffic
// through the seeded fault schedule plus the hedged-read straggler scan.
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
// bundles) and exits 1 if any burn-rate alert fired (at -quick the
// faults may miss the shorter traffic); record runs the fault-free
// scenario and freezes one manual bundle of the recent past.
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
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

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
	case "fig":
		return cmdFig(args)
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
	fmt.Fprintln(os.Stderr, "usage: harlctl {gen|summary|divide|optimize|show|fig|trace|metrics|monitor|health|critpath|whatif|slo|record|doctor} [flags]")
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

// parseSize reads a non-negative byte count with an optional K, M or G
// suffix, rejecting counts that overflow int64.
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
	if err != nil || n < 0 || n > math.MaxInt64/mult {
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
	threshold := fs.Float64("threshold", 0, "CV-change threshold percent (0 = adaptive: raised from 100% until the region count is within the -chunk bound)")
	chunk := fs.Int64("chunk", region.DefaultChunkSize, "fixed-division chunk bounding the region count")
	fs.Parse(args)
	if *path == "" {
		return fmt.Errorf("-trace is required")
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	regions, used, _, err := harl.DivideTrace(tr, *chunk, *threshold)
	if err != nil {
		return err
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
	profile := fs.Bool("profile", false, "print the Analysis Phase search profile")
	fs.Parse(args)
	if *path == "" || *out == "" {
		return fmt.Errorf("-trace and -out are required")
	}
	tr, err := loadTrace(*path)
	if err != nil {
		return err
	}
	var params cost.Params
	if *tiers {
		profiles := []device.Profile{device.DefaultHDD(), device.DefaultSATASSD(), device.DefaultSSD()}
		params, err = cost.CalibrateTiers(profiles, []int{*hservers, 1, 1}, netsim.GigabitEthernet(), *probes, 1)
	} else {
		params, err = cost.Calibrate(device.DefaultHDD(), device.DefaultSSD(), netsim.GigabitEthernet(),
			*hservers, *sservers, *probes, 1)
	}
	if err != nil {
		return err
	}
	pl := harl.Planner{Params: params, ChunkSize: *chunk, Step: *step, Parallelism: *parallel}
	if *profile {
		pl.Profile = &harl.SearchProfile{}
	}
	if *tiers {
		return optimizeTiered(pl, tr, *out)
	}
	plan, err := pl.Analyze(tr)
	if err != nil {
		return err
	}
	if err := writeProfileAndTable(pl.Profile, *out, plan.RST.Write); err != nil {
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
func optimizeTiered(pl harl.Planner, tr *trace.Trace, out string) error {
	plan, err := pl.AnalyzeTiered(tr)
	if err != nil {
		return err
	}
	if err := writeProfileAndTable(pl.Profile, out, plan.RST.Write); err != nil {
		return err
	}
	fmt.Printf("threshold used: %.0f%%\n", plan.Threshold)
	for i, e := range plan.RST.Entries {
		fmt.Printf("  region %3d: [%d,%d) stripes %v\n", i, e.Offset, e.End, e.Stripes)
	}
	fmt.Printf("tiered RST with %d entries written to %s\n", len(plan.RST.Entries), out)
	return nil
}

// writeProfileAndTable prints the search profile, when one was taken,
// and writes the planned table to the file out.
func writeProfileAndTable(prof *harl.SearchProfile, out string, write func(io.Writer) error) error {
	if prof != nil {
		if _, err := prof.WriteTo(os.Stdout); err != nil {
			return err
		}
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// scenarioFlags declares the -seed and -quick flags every simulated
// scenario shares, plus -chaos-seed when chaos is set, and returns the
// function that builds the experiment options from them once fs is
// parsed.
func scenarioFlags(fs *flag.FlagSet, chaos bool) func() experiments.Options {
	seed := fs.Int64("seed", 1, "simulation seed (same seed, byte-identical output)")
	quick := fs.Bool("quick", false, "run at reduced scale")
	var chaosSeed *int64
	if chaos {
		chaosSeed = fs.Int64("chaos-seed", 1, "fault-schedule seed (same seed replays the same faults)")
	}
	return func() experiments.Options {
		opts := experiments.DefaultOptions()
		if *quick {
			opts = experiments.QuickOptions()
		}
		opts.Seed = *seed
		if chaosSeed != nil {
			opts.ChaosSeed = *chaosSeed
		}
		return opts
	}
}

// cmdFig regenerates the named evaluation figures, or the whole
// registry in order, and prints each table followed by its name.
func cmdFig(args []string) error {
	opts, figures, workers, err := parseFig(args)
	if err != nil {
		return err
	}
	start := time.Now()
	tables, err := experiments.RunParallel(opts, figures, workers)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	for i, table := range tables {
		fmt.Println(table)
		fmt.Printf("(figure %s)\n\n", figures[i].Name)
	}
	fmt.Printf("(%d figure(s) regenerated in %v)\n", len(tables), elapsed.Round(time.Millisecond))
	return nil
}

// parseFig maps fig's flags onto the experiment options, the figures to
// run in argument order, and the fan-out worker count. An unknown name
// fails here, before any figure runs.
func parseFig(args []string) (experiments.Options, []experiments.Figure, int, error) {
	fs := flag.NewFlagSet("fig", flag.ExitOnError)
	options := scenarioFlags(fs, true)
	parallel := fs.Int("parallel", 1, "figure fan-out workers (0 = GOMAXPROCS, 1 = serial; the tables are identical at every setting)")
	maxRetries := fs.Int("max-retries", 0, "override the client retry budget (0 = default)")
	timeout := fs.Duration("timeout", 0, "override the per-request deadline (0 = default)")
	backoff := fs.Duration("backoff", 0, "override the retry backoff base (0 = default)")
	hedgeAfter := fs.Duration("hedge-after", 0, "override the hedged-read threshold (0 = default)")
	fs.Parse(args)

	opts := options()
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

	registry := experiments.Figures()
	if fs.NArg() == 0 {
		return opts, registry, *parallel, nil
	}
	figures := make([]experiments.Figure, 0, fs.NArg())
	for _, name := range fs.Args() {
		f, ok := experiments.FigureByName(name)
		if !ok {
			names := make([]string, len(registry))
			for i, r := range registry {
				names[i] = r.Name
			}
			return opts, nil, 0, fmt.Errorf("unknown figure %q (want one of %s)", name, strings.Join(names, ", "))
		}
		figures = append(figures, f)
	}
	return opts, figures, *parallel, nil
}

// cmdTrace runs the instrumented IOR baseline and exports the span trace
// as Chrome trace_event JSON for Perfetto.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	out := fs.String("out", "trace.json", "output Chrome trace_event JSON (open at ui.perfetto.dev)")
	metricsOut := fs.String("metrics-out", "", "also dump the metrics registry to this file")
	options := scenarioFlags(fs, false)
	fs.Parse(args)

	run, err := experiments.TraceIOR(options())
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
	options := scenarioFlags(fs, false)
	prom := fs.Bool("prom", false, "export in Prometheus text exposition format")
	fs.Parse(args)

	run, err := experiments.TraceIOR(options())
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
	options := scenarioFlags(fs, true)
	shape := fs.String("shape", "double-crash", "fault shape: crash, double-crash or recovery-overlap")
	bundleDir := fs.String("bundle-dir", "", "write incident bundles under this directory")
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

	run, err := experiments.RunSLO(options(), picked, *bundleDir)
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
	options := scenarioFlags(fs, false)
	bundleDir := fs.String("bundle-dir", "bundles", "write the bundle under this directory")
	fs.Parse(args)

	run, bundle, err := experiments.RunRecord(options(), *bundleDir)
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
	options := scenarioFlags(fs, false)
	shift := fs.Bool("shift", true, "shift the workload mid-run (false = plan-faithful control)")
	fs.Parse(args)
	return experiments.RunDrift(options(), *shift)
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
	options := scenarioFlags(fs, false)
	shift := fs.Bool("shift", true, "shift the workload mid-run (false = plan-faithful control)")
	fs.Parse(args)

	if *replMode {
		rep, err := experiments.RunReplStatus(options())
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

	run, err := experiments.RunDrift(options(), *shift)
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
	options := scenarioFlags(fs, false)
	control := fs.Bool("control", false, "fault-free control run (no seeded straggle)")
	fs.Parse(args)

	run, err := experiments.RunDoctor(options(), !*control)
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
	options := scenarioFlags(fs, false)
	fs.Parse(args)

	run, err := experiments.TraceIOR(options())
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
	options := scenarioFlags(fs, false)
	fs.Parse(args)

	opts := options()
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
	// The header names the format, and only that format's decoder reads it.
	if harl.IsTieredRST(data) {
		trst, err := harl.ReadTieredRST(bytes.NewReader(data))
		if err != nil {
			return err
		}
		fmt.Printf("tier server counts: %v\n", trst.Counts)
		fmt.Printf("%-6s %-14s %-14s %s\n", "region", "offset", "end", "per-tier stripes")
		for i, e := range trst.Entries {
			fmt.Printf("%-6d %-14d %-14d %v\n", i, e.Offset, e.End, e.Stripes)
		}
		return nil
	}
	rst, err := harl.ReadRST(bytes.NewReader(data))
	if err != nil {
		return err
	}
	// A region with a replication factor (every table Write emits as v2)
	// adds the R column.
	replicated := slices.ContainsFunc(rst.Entries, func(e harl.RSTEntry) bool { return e.R != 0 })
	fmt.Printf("%-6s %-14s %-14s %-10s %-10s", "region", "offset", "end", "H stripe", "S stripe")
	if replicated {
		fmt.Print(" R")
	}
	fmt.Println()
	for i, e := range rst.Entries {
		fmt.Printf("%-6d %-14d %-14d %-10s %-10s", i, e.Offset, e.End, kb(e.H), kb(e.S))
		if replicated {
			fmt.Printf(" %d", e.R)
		}
		fmt.Println()
	}
	return nil
}

func kb(b int64) string {
	if b%1024 == 0 {
		return fmt.Sprintf("%dKB", b/1024)
	}
	return fmt.Sprintf("%dB", b)
}
