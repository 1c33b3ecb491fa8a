package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the benchmark's own
// tables must agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl benchmarkJSON
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, benchmark runs %d", decl.RunSeconds, runSeconds)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, ours)
	}
	if !reflect.DeepEqual(decl.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\ndiffers from the table\n%+v", decl.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(decl.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\ndiffers from the table\n%+v", decl.PerLayer, perLayer)
	}
}

// Every workload, at test size and traced, passes the gate and reports
// exactly the declared metrics with their units; the traced outputs are
// written and the CPU shares add up to one.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload traced")
	}
	out := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, runConfig{seed: 7, traced: true, small: true, out: out})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			want := map[string]string{}
			for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
				if m.Name != "peak_rss_MB" { // the parent process measures it
					want[m.Name] = m.Unit
				}
			}
			for name, s := range res.Metrics {
				unit, ok := want[name]
				if !ok {
					t.Errorf("undeclared metric %s", name)
				} else if s.Unit != unit {
					t.Errorf("%s in %q, declared %q", name, s.Unit, unit)
				}
				delete(want, name)
			}
			for name := range want {
				t.Errorf("missing metric %s", name)
			}
			for _, m := range endToEnd {
				if s, ok := res.Metrics[m.Name]; ok && !(s.Median > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, s.Median)
				}
			}
			var shares float64
			for _, m := range perLayer {
				if strings.HasSuffix(m.Name, "_share") {
					shares += res.Metrics[m.Name].Median
				}
			}
			if math.Abs(shares-1) > 0.02 {
				t.Errorf("cpu shares sum to %v", shares)
			}
			for _, suffix := range []string{".spans.json", ".cpu.pprof", ".layers.json"} {
				if _, err := os.Stat(filepath.Join(out, w.name+suffix)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}

// The yardstick must not allocate: otherwise the heap a change leaves
// behind would slow it, and the scaled host times would credit the
// change for it.
func TestYardstickAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(2, func() { yardstick() }); n != 0 {
		t.Fatalf("yardstick allocates %v times per run", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	// A single value, which Python refuses, is its own quartiles.
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{4}, 4, 4, 4},
	} {
		s := summarize("s", c.xs...)
		if s.Q1 != c.q1 || s.Median != c.med || s.Q3 != c.q3 {
			t.Errorf("%v: got %v %v %v, want %v %v %v", c.xs, s.Q1, s.Median, s.Q3, c.q1, c.med, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	wall := metric{"wall_s", "s", "lower", 0.1}
	wide := metric{"wall_s", "s", "lower", 0.25}
	tput := metric{"sim_MB_per_s", "MB/s", "higher", 0.1}
	virt := metric{"virt_mean_ms", "ms", "lower", 0.05}
	failed := metric{"failed_frac", "fraction", "lower", 0}
	for _, c := range []struct {
		m            metric
		base, change []float64
		sameSeeds    bool
		want         string
	}{
		{wall, []float64{1, 1, 1}, []float64{1.05, 1.05, 1.05}, true, "ok"},
		{wall, []float64{1, 1, 1}, []float64{1.2, 1.2, 1.2}, true, "regressed"},
		{tput, []float64{100, 100, 100}, []float64{80, 80, 80}, true, "regressed"},
		{tput, []float64{100, 100, 100}, []float64{120, 120, 120}, true, "ok"},
		// A spread wider than the bound resolves only when every change
		// sample beats every base sample.
		{wall, []float64{0.8, 1, 1.2}, []float64{1.3, 1.3, 1.3}, true, "unresolved"},
		{wall, []float64{0.8, 1, 1.2}, []float64{0.95, 1, 1.05}, true, "unresolved"},
		{wall, []float64{0.8, 1, 1.2}, []float64{0.5, 0.6, 0.7}, true, "ok"},
		// Median worse by more than the bound, quartile ranges overlapping.
		{wide, []float64{0.9, 1, 1.1}, []float64{1.08, 1.3, 1.4}, true, "unresolved"},
		{wide, []float64{0.9, 1, 1.1}, []float64{1.2, 1.3, 1.4}, true, "regressed"},
		// Seed-exact metrics: any worsening between runs of the same
		// seeds, the bound between runs of different ones.
		{virt, []float64{10, 10, 10}, []float64{10.01, 10.01, 10.01}, true, "regressed"},
		{virt, []float64{10, 10, 10}, []float64{10.01, 10.01, 10.01}, false, "ok"},
		{virt, []float64{10, 11, 12}, []float64{12, 11, 10}, true, "ok"},
		{virt, []float64{10, 11, 12}, []float64{10, 11, 12.001}, true, "regressed"},
		// failed_frac: any failure more, whatever the seeds.
		{failed, []float64{0, 0, 0}, []float64{0, 0, 0.001}, false, "regressed"},
		{failed, []float64{0, 0, 0}, []float64{0, 0, 0}, false, "ok"},
	} {
		if got := verdict(c.m, summarize("", c.base...), summarize("", c.change...), c.sameSeeds); got != c.want {
			t.Errorf("%s %v -> %v (same seeds %v): %s, want %s", c.m.Name, c.base, c.change, c.sameSeeds, got, c.want)
		}
	}
}

// Runs given for one side of -compare pool their samples, so the drift
// between runs made at different times widens the quartiles.
func TestComparePoolsTheRunsOfASide(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seed int64, wall ...float64) string {
		res := []*childResult{{Workload: "ior_uniform", Seed: seed, Metrics: map[string]summary{"wall_s": summarize("s", wall...)}}}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fast := write("fast.json", 1, 1, 1.01, 0.99)
	slow := write("slow.json", 2, 1.3, 1.31, 1.29) // the same commit in a slow host phase
	change := write("change.json", 1, 1.3, 1.3, 1.3)
	verdictOf := func(base string) string {
		var out strings.Builder
		if err := compare(&out, base, change); err != nil {
			t.Fatal(err)
		}
		fields := strings.Fields(strings.Split(strings.TrimSpace(out.String()), "\n")[1])
		return fields[len(fields)-1]
	}
	if got := verdictOf(fast); got != "regressed" {
		t.Errorf("one base run: %s, want regressed", got)
	}
	if got := verdictOf(fast + "," + slow); got != "unresolved" {
		t.Errorf("two base runs: %s, want unresolved", got)
	}
}
