package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"harl/internal/experiments"
	"harl/internal/harl"
	"harl/internal/sim"
)

// capture runs one dispatch with os.Stdout redirected to a pipe and
// returns what the command printed alongside its error.
func capture(t *testing.T, cmd string, args ...string) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := dispatch(cmd, args)
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

func TestSummaryOnTinyTrace(t *testing.T) {
	out, err := capture(t, "summary", "-trace", "testdata/tiny.trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"requests:   24", "4 reads, 20 writes", "open files: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestDivideOnTinyTrace(t *testing.T) {
	out, err := capture(t, "divide", "-trace", "testdata/tiny.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "regions (threshold") {
		t.Errorf("divide output malformed:\n%s", out)
	}
}

// -threshold divides at exactly the given CV threshold, which must not
// be negative; without it the threshold is raised adaptively, as the
// planner does.
func TestDivideFixedThreshold(t *testing.T) {
	out, err := capture(t, "divide", "-trace", "testdata/tiny.trace", "-threshold", "50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "6 regions (threshold 50%):") {
		t.Errorf("divide -threshold 50 output:\n%s", out)
	}
	if _, err := capture(t, "divide", "-trace", "testdata/tiny.trace", "-threshold", "-5"); err == nil {
		t.Error("divide accepted a negative threshold")
	}
}

func TestOptimizeShowRoundTrip(t *testing.T) {
	rst := filepath.Join(t.TempDir(), "tiny.rst")
	out, err := capture(t, "optimize", "-trace", "testdata/tiny.trace", "-out", rst, "-probes", "50")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "RST with") || !strings.Contains(out, "threshold used") {
		t.Errorf("optimize output malformed:\n%s", out)
	}
	out, err = capture(t, "show", "-rst", rst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "H stripe") {
		t.Errorf("show output malformed:\n%s", out)
	}
}

// The three-tier path: optimize -tiers writes a tiered RST that show
// renders per tier and harl.ReadTieredRST accepts.
func TestOptimizeTiersShowRoundTrip(t *testing.T) {
	rst := filepath.Join(t.TempDir(), "tiny.trst")
	if _, err := capture(t, "optimize", "-tiers", "-trace", "testdata/tiny.trace", "-out", rst, "-probes", "50"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(rst)
	if err != nil {
		t.Fatal(err)
	}
	trst, err := harl.ReadTieredRST(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("optimize -tiers wrote an unreadable tiered RST: %v", err)
	}
	out, err := capture(t, "show", "-rst", rst)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || lines[0] != "tier server counts: [6 1 1]" || !strings.Contains(lines[1], "per-tier stripes") {
		t.Fatalf("show -rst output malformed:\n%s", out)
	}
	if rows := len(lines) - 2; rows != len(trst.Entries) || rows == 0 {
		t.Errorf("show printed %d rows for %d entries:\n%s", rows, len(trst.Entries), out)
	}
}

// show picks its decoder from the header: v1 and tiered tables print as
// they always have, v2 tables add the R column, and a malformed table
// reports the error of the format its header names.
func TestShowReadsTheHeader(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct {
		name, table, want, wantErr string
	}{
		{name: "v1", table: "#harl-rst v1\n0 134217728 16384 65536\n134217728 201326592 0 147456\n",
			want: "region offset         end            H stripe   S stripe  \n" +
				"0      0              134217728      16KB       64KB      \n" +
				"1      134217728      201326592      0KB        144KB     \n"},
		{name: "v2", table: "#harl-rst v2\n0 100 4096 8192 2\n100 300 0 65536 1\n",
			want: "region offset         end            H stripe   S stripe   R\n" +
				"0      0              100            4KB        8KB        2\n" +
				"1      100            300            0KB        64KB       1\n"},
		{name: "tiered", table: "#harl-tiered-rst v1\n#counts 6 1 1\n0 134217728 16384 32768 65536\n134217728 268435456 0 65536 131072\n",
			want: "tier server counts: [6 1 1]\n" +
				"region offset         end            per-tier stripes\n" +
				"0      0              134217728      [16384 32768 65536]\n" +
				"1      134217728      268435456      [0 65536 131072]\n"},
		{name: "malformed v1", table: "#harl-rst v1\n0 10 1\n", wantErr: "harl: RST line 2: want 4 fields"},
		{name: "malformed tiered", table: "#harl-tiered-rst v1\n0 10 1\n", wantErr: "harl: tiered RST line 2: missing #counts line"},
	} {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_"))
		if err := os.WriteFile(path, []byte(c.table), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := capture(t, "show", "-rst", path)
		if c.wantErr != "" {
			if err == nil || !strings.HasPrefix(err.Error(), c.wantErr) {
				t.Errorf("%s: error %v, want one starting %q", c.name, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out != c.want {
			t.Errorf("%s: show printed\n%q\nwant\n%q", c.name, out, c.want)
		}
	}
}

// optimize -tiers -profile prints the search profile, with the best
// stripes per tier, and -parallel changes nothing in the written table.
func TestOptimizeTiersProfile(t *testing.T) {
	dir := t.TempDir()
	var tables [2][]byte
	for i, par := range []string{"1", "4"} {
		rst := filepath.Join(dir, "tiny"+par+".trst")
		out, err := capture(t, "optimize", "-tiers", "-profile", "-parallel", par,
			"-trace", "testdata/tiny.trace", "-out", rst, "-probes", "50")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "analysis: 1 regions") || !regexp.MustCompile(`best \d+K-\d+K-\d+K `).MatchString(out) {
			t.Errorf("optimize -tiers -profile -parallel %s printed no tiered profile:\n%s", par, out)
		}
		if tables[i], err = os.ReadFile(rst); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Errorf("-parallel changed the tiered RST:\n%s\n%s", tables[0], tables[1])
	}
}

func TestTraceCommandQuick(t *testing.T) {
	json := filepath.Join(t.TempDir(), "trace.json")
	out, err := capture(t, "trace", "-quick", "-out", json)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "spans written") || !strings.Contains(out, "ior: write") {
		t.Errorf("trace output malformed:\n%s", out)
	}
	data, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"displayTimeUnit"`) {
		t.Error("trace export is not trace_event JSON")
	}
}

func TestMonitorCommandQuick(t *testing.T) {
	out, err := capture(t, "monitor", "-quick")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"layout health", "advice: restripe", "detected"} {
		if !strings.Contains(out, want) {
			t.Errorf("monitor missing %q:\n%s", want, out)
		}
	}
}

func TestHealthExitCodes(t *testing.T) {
	out, err := capture(t, "health", "-quick")
	var code exitCode
	if !errors.As(err, &code) || code != 1 {
		t.Fatalf("shifted health err = %v, want exit code 1", err)
	}
	if !strings.Contains(out, "STALE") {
		t.Errorf("stale health output malformed:\n%s", out)
	}
	out, err = capture(t, "health", "-quick", "-shift=false")
	if err != nil {
		t.Fatalf("control health: %v", err)
	}
	if !strings.Contains(out, "healthy") {
		t.Errorf("control health output malformed:\n%s", out)
	}
}

func TestHealthReplStatus(t *testing.T) {
	out, err := capture(t, "health", "-quick", "-repl")
	if err != nil {
		t.Fatalf("health -repl: %v\n%s", err, out)
	}
	for _, want := range []string{"replica/view status", "unreplicated", "r=2", "view changes", "available: every replica group"} {
		if !strings.Contains(out, want) {
			t.Errorf("health -repl missing %q:\n%s", want, out)
		}
	}
}

func TestCritPathCommandQuick(t *testing.T) {
	json := filepath.Join(t.TempDir(), "highlight.json")
	out, err := capture(t, "critpath", "-quick", "-out", json)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"critical path:", "by kind:", "by tier:", "highlighted trace written"} {
		if !strings.Contains(out, want) {
			t.Errorf("critpath missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(json)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"critical-path"`) {
		t.Error("highlight export missing the critical-path track")
	}
}

func TestWhatIfDriftCommandQuick(t *testing.T) {
	out, err := capture(t, "whatif", "-quick", "-drift")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"what-if baseline:", "#1 restripe/r", "causal gain", "(measured)"} {
		if !strings.Contains(out, want) {
			t.Errorf("whatif -drift missing %q:\n%s", want, out)
		}
	}
}

func TestSLOCommandFiresOnDoubleCrash(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	out, err := capture(t, "slo", "-bundle-dir", dir)
	var code exitCode
	if !errors.As(err, &code) || code != 1 {
		t.Fatalf("slo under double-crash err = %v, want exit code 1\n%s", err, out)
	}
	for _, want := range []string{"ALERT", "burn", "bundle:", "SLO BURN:"} {
		if !strings.Contains(out, want) {
			t.Errorf("slo output missing %q:\n%s", want, out)
		}
	}
	// The incident bundles landed on disk under the seed directory.
	matches, err := filepath.Glob(filepath.Join(dir, "seed-1", "*", "trace.json"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no bundle traces under %s (err %v)", dir, err)
	}
}

func TestRecordCommandQuick(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "bundles")
	out, err := capture(t, "record", "-quick", "-bundle-dir", dir)
	if err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	for _, want := range []string{"incident: record", "recorder:", "bundle written to"} {
		if !strings.Contains(out, want) {
			t.Errorf("record output missing %q:\n%s", want, out)
		}
	}
	for _, f := range []string{"trace.json", "metrics.txt", "blame.txt", "alert.txt"} {
		matches, err := filepath.Glob(filepath.Join(dir, "seed-1", "record-*", f))
		if err != nil || len(matches) != 1 {
			t.Fatalf("bundle artifact %s not on disk under %s (err %v)", f, dir, err)
		}
	}
}

func TestMetricsPromDeterministic(t *testing.T) {
	first, err := capture(t, "metrics", "-quick", "-prom")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE pfs_disk_ops_total counter", "# virtual time", `server="`} {
		if !strings.Contains(first, want) {
			t.Errorf("prom export missing %q:\n%.400s", want, first)
		}
	}
	second, err := capture(t, "metrics", "-quick", "-prom")
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Error("prometheus export is not byte-deterministic across replays")
	}
}

func TestUnknownCommandUsage(t *testing.T) {
	var code exitCode
	if _, err := capture(t, "bogus"); !errors.As(err, &code) || code != 2 {
		t.Fatalf("unknown command err = %v, want exit code 2", err)
	}
}

// doctor confirms the seeded straggler with exit code 1 and a report
// byte-identical to the committed golden; the fault-free control exits
// clean.
func TestDoctorCommandGoldenAndExitCodes(t *testing.T) {
	out, err := capture(t, "doctor", "-quick", "-seed", "1")
	var code exitCode
	if !errors.As(err, &code) || code != 1 {
		t.Fatalf("doctor straggler run err = %v, want exit code 1\n%s", err, out)
	}
	for _, want := range []string{"[straggle] h1 (hdd)", "skew heatmap", "CONFIRMED: 1 straggler(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("doctor output missing %q:\n%s", want, out)
		}
	}
	golden, gerr := os.ReadFile("testdata/doctor_quick_seed1.txt")
	if gerr != nil {
		t.Fatal(gerr)
	}
	if out != string(golden) {
		t.Errorf("doctor report drifted from testdata/doctor_quick_seed1.txt:\n got:\n%s\nwant:\n%s", out, golden)
	}

	out, err = capture(t, "doctor", "-quick", "-control")
	if err != nil {
		t.Fatalf("doctor control: %v\n%s", err, out)
	}
	for _, want := range []string{"no anomalies", "clean: no straggler confirmed"} {
		if !strings.Contains(out, want) {
			t.Errorf("doctor control output missing %q:\n%s", want, out)
		}
	}
}

// gen's non-uniform trace, optimized at two worker counts, must yield
// byte-identical RST files: the Analysis Phase is deterministic at any
// parallelism.
func TestGenOptimizeDeterministicAcrossParallelism(t *testing.T) {
	dir := t.TempDir()
	tr := filepath.Join(dir, "multi.trace")
	out, err := capture(t, "gen", "-kind", "multi", "-out", tr)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "records to") {
		t.Errorf("gen output malformed:\n%s", out)
	}
	var rsts [][]byte
	for _, par := range []string{"1", "4"} {
		rst := filepath.Join(dir, "p"+par+".rst")
		if _, err := capture(t, "optimize", "-trace", tr, "-out", rst, "-probes", "200", "-parallel", par); err != nil {
			t.Fatalf("optimize -parallel %s: %v", par, err)
		}
		b, err := os.ReadFile(rst)
		if err != nil {
			t.Fatal(err)
		}
		rsts = append(rsts, b)
	}
	if len(rsts[0]) == 0 || !bytes.Equal(rsts[0], rsts[1]) {
		t.Errorf("RST at -parallel 1 (%d bytes) differs from -parallel 4 (%d bytes)", len(rsts[0]), len(rsts[1]))
	}
}

func TestGenRejectsBadInput(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.trace")
	for _, args := range [][]string{
		{"-kind", "ior"},
		{"-kind", "mixed", "-out", out},
		{"-kind", "ior", "-req", "12Q", "-out", out},
		// Both sizes used to wrap silently to a 1 GiB file.
		{"-kind", "ior", "-file", "17179869185G", "-out", out},
		{"-kind", "ior", "-file", "-17179869183G", "-out", out},
	} {
		if _, err := capture(t, "gen", args...); err == nil {
			t.Errorf("gen %v succeeded, want an error", args)
		}
	}
}

// fig prints the named figures in argument order, each table exactly as
// its figure function renders it followed by its name, then the count
// line. An unknown name fails before any figure runs, and every flag
// reaches experiments.Options.
func TestFigCommand(t *testing.T) {
	t.Run("tables", func(t *testing.T) {
		out, err := capture(t, "fig", "-quick", "1a", "hedge")
		if err != nil {
			t.Fatal(err)
		}
		var want strings.Builder
		for _, f := range []struct {
			name string
			run  func(experiments.Options) (*experiments.Table, error)
		}{{"1a", experiments.Fig1a}, {"hedge", experiments.FigHedge}} {
			table, err := f.run(experiments.QuickOptions())
			if err != nil {
				t.Fatal(err)
			}
			want.WriteString(table.String() + "\n(figure " + f.name + ")\n\n")
		}
		if !strings.HasPrefix(out, want.String()) {
			t.Fatalf("fig -quick 1a hedge output:\n%s\nwant prefix:\n%s", out, want.String())
		}
		if rest := out[want.Len():]; !strings.HasPrefix(rest, "(2 figure(s) regenerated in ") {
			t.Errorf("fig count line = %q", rest)
		}
	})

	t.Run("unknown", func(t *testing.T) {
		out, err := capture(t, "fig", "-quick", "1a", "nope")
		if err == nil || out != "" {
			t.Fatalf("fig with an unknown name: err %v, printed:\n%s", err, out)
		}
		for _, f := range experiments.Figures() {
			if !strings.Contains(err.Error(), f.Name) {
				t.Errorf("error %q does not list figure %s", err, f.Name)
			}
		}
	})

	t.Run("flags", func(t *testing.T) {
		opts, figures, workers, err := parseFig([]string{"-quick", "-seed", "3", "-chaos-seed", "9", "-parallel", "0",
			"-max-retries", "7", "-timeout", "40ms", "-backoff", "3ms", "-hedge-after", "25ms", "chaos"})
		if err != nil {
			t.Fatal(err)
		}
		if opts.FileSize != experiments.QuickOptions().FileSize || opts.Seed != 3 || opts.ChaosSeed != 9 || workers != 0 {
			t.Errorf("fig scale/seeds/workers: file %d seed %d chaos seed %d workers %d",
				opts.FileSize, opts.Seed, opts.ChaosSeed, workers)
		}
		if opts.MaxRetries != 7 || opts.RequestTimeout != 40*sim.Millisecond ||
			opts.Backoff != 3*sim.Millisecond || opts.HedgeAfter != 25*sim.Millisecond {
			t.Errorf("fig retry knobs: retries %d timeout %v backoff %v hedge-after %v",
				opts.MaxRetries, opts.RequestTimeout, opts.Backoff, opts.HedgeAfter)
		}
		if len(figures) != 1 || figures[0].Name != "chaos" {
			t.Errorf("fig chaos selected %v", figures)
		}
		def, all, workers, err := parseFig(nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != len(experiments.Figures()) || workers != 1 || def.MaxRetries != experiments.DefaultOptions().MaxRetries {
			t.Errorf("fig defaults: %d figures, %d workers, %d retries", len(all), workers, def.MaxRetries)
		}
	})
}
