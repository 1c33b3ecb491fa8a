// Command bench is the HARL repository's benchmark. It runs six
// workloads through the public API of the simulator's layers, each in a
// child process of its own, and prints every end-to-end metric (and with
// -trace 1 every per-layer metric) by name with its unit, median,
// quartiles and sample count. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash bench/run.sh [-workload W] [-seed N] [-trace 0|1] [-out DIR] [-json FILE]
//	bash bench/run.sh -compare base.json[,more.json...] new.json[,more.json...]
//
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"syscall"
)

// runSeconds is the host time of timed iterations per workload, the same
// on every commit. BENCHMARK.json's run_seconds declares it.
const runSeconds = 12

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run; empty runs all")
	seed := flag.Int64("seed", 1, "seed for the cluster, the IOR generators and the fault schedule")
	// Callers that run every benchmark alike pass run_seconds back; any
	// other value is refused, so the run length stays fixed.
	seconds := flag.Int("seconds", runSeconds, "must be the fixed run length, "+fmt.Sprint(runSeconds))
	trace := flag.Int("trace", 0, "1 adds the traced per-layer iteration and prints the per-layer metrics")
	out := flag.String("out", ".bench_build/out", "directory for the traced outputs")
	jsonPath := flag.String("json", "", "also write every summary to this file, for -compare")
	cmp := flag.Bool("compare", false, "compare the -json runs given as two arguments, base and change, each a comma-separated list")
	child := flag.String("child", "", "run one workload in this process (used by the parent)")
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare base.json[,more.json...] new.json[,more.json...]")
			return 2
		}
		if err := compare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "-trace must be 0 or 1")
		return 2
	}
	if *seconds != runSeconds {
		fmt.Fprintf(os.Stderr, "-seconds must be %d: the run length is fixed\n", runSeconds)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: runSeconds, traced: *trace == 1, out: *out}

	if *child != "" {
		w, ok := findWorkload(*child)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", *child)
			return 2
		}
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	}

	var names []string
	for _, w := range workloads {
		if *workload == "" || *workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	results := make([]*childResult, 0, len(names))
	for _, name := range names {
		res, err := spawn(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		results = append(results, res)
		printResult(res)
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonPath, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	line, correct := finalLine(results, cfg.traced)
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

// spawn runs one workload in a child process of this binary, so every
// workload starts on a fresh heap and peak_rss_MB is its own. The child
// gets this process's flags, and its standard error passes through.
func spawn(name string) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", name}
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "json" {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var res childResult
	if err := json.Unmarshal(stdout, &res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.put("peak_rss_MB", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	return &res, nil
}

// printResult prints one line per metric the run reported, end-to-end
// first: the per-layer ones only come with -trace 1, except failed_frac
// and peak_rss_MB.
func printResult(res *childResult) {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for _, m := range set {
			if s, ok := res.Metrics[m.Name]; ok {
				fmt.Printf("%-15s %-28s %s\n", res.Workload, m.Name, s)
			}
		}
	}
	fmt.Printf("%-15s %d requests per iteration (latency samples); %d attempted, %d failed over the timed iterations\n",
		res.Workload, res.Requests, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintln(os.Stderr, "gate failed:", f)
	}
}

// finalLine renders the closing JSON object: the end-to-end metrics, or
// with traced the per-layer ones. With several workloads each metric
// name is prefixed by its workload and a slash.
func finalLine(results []*childResult, traced bool) (string, bool) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, res := range results {
		out.Correct = out.Correct && res.Correct
		out.Attempted += res.Attempted
		out.Failed += res.Failed
		for _, m := range set {
			name := m.Name
			if len(results) > 1 {
				name = res.Workload + "/" + name
			}
			s, ok := res.Metrics[m.Name]
			if !ok {
				out.Correct = false
				fmt.Fprintf(os.Stderr, "bench: %s did not report %s\n", res.Workload, m.Name)
				continue
			}
			out.Metrics[name] = value{s.Median, s.Unit}
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		// Only a non-finite value can fail, and the gate rules those out.
		panic(err)
	}
	return string(data), out.Correct
}
