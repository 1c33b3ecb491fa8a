package telemetry

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"harl/internal/obs"
	"harl/internal/sim"
)

func span(id, parent int64, track string, start, end sim.Duration, tags ...obs.Tag) *obs.Span {
	return &obs.Span{
		ID: obs.SpanID(id), Parent: obs.SpanID(parent), Track: track,
		Name: "op", Start: sim.Time(start), End: sim.Time(end), Tags: tags,
	}
}

func TestRecorderEvictionAndWindow(t *testing.T) {
	r := NewRecorder(3)
	for i := int64(1); i <= 5; i++ {
		r.Add(span(i, 0, "a", sim.Duration(i), sim.Duration(i+1)))
	}
	r.Add(span(6, 0, "b", 0, 1))
	st := r.Stats()
	if st.Tracks != 2 || st.Held != 4 || st.Captured != 6 || st.Evicted != 2 {
		t.Fatalf("stats %+v", st)
	}
	w := r.Window()
	if len(w) != 4 {
		t.Fatalf("window holds %d spans, want 4", len(w))
	}
	// Sorted by (Start, ID): span 6 (start 0) first, then 3,4,5.
	wantIDs := []obs.SpanID{6, 3, 4, 5}
	for i, s := range w {
		if s.ID != wantIDs[i] {
			t.Fatalf("window order %v at %d, want %v", s.ID, i, wantIDs)
		}
	}
}

func TestRecorderOrphanRewrite(t *testing.T) {
	r := NewRecorder(2)
	r.Add(span(1, 0, "a", 0, 1))
	r.Add(span(2, 1, "a", 1, 2)) // child of 1
	r.Add(span(3, 2, "a", 2, 3)) // child of 2; evicts 1
	for _, s := range r.Window() {
		if s.ID == 2 && s.Parent != 0 {
			t.Fatalf("span 2's evicted parent not rewritten: %d", s.Parent)
		}
		if s.ID == 3 && s.Parent != 2 {
			t.Fatalf("span 3 lost its live parent: %d", s.Parent)
		}
	}
}

func TestRecorderBoundedMemory(t *testing.T) {
	r := NewRecorder(8)
	for i := int64(1); i <= 10000; i++ {
		r.Add(span(i, 0, "a", sim.Duration(i), sim.Duration(i+1)))
	}
	if st := r.Stats(); st.Held != 8 || st.Evicted != 10000-8 {
		t.Fatalf("ring did not stay bounded: %+v", st)
	}
}

func defaultTestObjective() Objective {
	return Objective{
		Name: "avail", Kind: KindAvailability, Target: 0.99,
		Window: sim.Second, Short: sim.Second / 6, Burn: 4, MinSamples: 4,
	}
}

func TestBurnRateFiresOnSustainedErrors(t *testing.T) {
	e, err := NewEngine([]Objective{defaultTestObjective()})
	if err != nil {
		t.Fatal(err)
	}
	at := sim.Time(0)
	// Healthy traffic: no alert.
	for i := 0; i < 100; i++ {
		at = at.Add(sim.Millisecond)
		if got := e.Observe(KindAvailability, at, true, 0, ""); len(got) != 0 {
			t.Fatalf("alert on healthy traffic: %v", got)
		}
	}
	// Hard outage on group 1: every attempt fails.
	var fired []Alert
	for i := 0; i < 50; i++ {
		at = at.Add(sim.Millisecond)
		fired = append(fired, e.Observe(KindAvailability, at, false, 0, "group 1")...)
	}
	if len(fired) != 1 {
		t.Fatalf("fired %d alerts, want exactly 1 (latched)", len(fired))
	}
	a := fired[0]
	if a.Objective != "avail" || a.Detail != "group 1" {
		t.Fatalf("alert %+v", a)
	}
	if a.BurnLong < 4 || a.BurnShort < 4 {
		t.Fatalf("burn rates below threshold: %+v", a)
	}
}

func TestBurnRateShortWindowGatesStaleErrors(t *testing.T) {
	// Errors a while ago, healthy now: long window may still carry the
	// damage but the short window must hold the alert back.
	o := defaultTestObjective()
	o.MinSamples = 2
	e, _ := NewEngine([]Objective{o})
	at := sim.Time(0)
	for i := 0; i < 10; i++ {
		at = at.Add(sim.Millisecond)
		e.Observe(KindAvailability, at, false, 0, "group 0")
	}
	// Jump past the short window (1/6 s) but stay inside the long one,
	// then observe healthy traffic only.
	at = at.Add(sim.Second / 3)
	for i := 0; i < 50; i++ {
		at = at.Add(sim.Millisecond)
		if got := e.Observe(KindAvailability, at, true, 0, ""); len(got) != 0 {
			t.Fatalf("stale errors fired through a healthy short window: %v", got)
		}
	}
}

func TestBurnRateRearmsAfterRecovery(t *testing.T) {
	o := defaultTestObjective()
	e, _ := NewEngine([]Objective{o})
	at := sim.Time(0)
	outage := func(detail string) (fired []Alert) {
		for i := 0; i < 20; i++ {
			at = at.Add(sim.Millisecond)
			fired = append(fired, e.Observe(KindAvailability, at, false, 0, detail)...)
		}
		return fired
	}
	if got := outage("group 0"); len(got) != 1 {
		t.Fatalf("first outage fired %d alerts", len(got))
	}
	// Let the whole long window slide past the outage: burn drops to 0,
	// which re-arms the latch.
	at = at.Add(2 * sim.Second)
	for i := 0; i < 20; i++ {
		at = at.Add(sim.Millisecond)
		e.Observe(KindAvailability, at, true, 0, "")
	}
	if got := outage("group 2"); len(got) != 1 {
		t.Fatalf("re-armed outage fired %d alerts", len(got))
	} else if got[0].Detail != "group 2" {
		t.Fatalf("second alert blames %q, want group 2 (badBy not cleared)", got[0].Detail)
	}
	if len(e.Alerts()) != 2 {
		t.Fatalf("engine recorded %d alerts, want 2", len(e.Alerts()))
	}
}

func TestLatencyObjectiveJudgesByLimit(t *testing.T) {
	e, _ := NewEngine([]Objective{{
		Name: "p-lat", Kind: KindLatency, Target: 0.9, Limit: 0.010,
		Window: sim.Second, MinSamples: 4,
	}})
	at := sim.Time(0)
	var fired []Alert
	for i := 0; i < 30; i++ {
		at = at.Add(sim.Millisecond)
		// Successful but slow: 50ms > 10ms limit → bad.
		fired = append(fired, e.Observe(KindLatency, at, true, 0.050, "pfs.write")...)
	}
	if len(fired) != 1 {
		t.Fatalf("slow-but-ok traffic fired %d alerts, want 1", len(fired))
	}
	if fired[0].Detail != "pfs.write" {
		t.Fatalf("detail %q", fired[0].Detail)
	}
}

func TestEngineValidation(t *testing.T) {
	if _, err := NewEngine([]Objective{{Name: "x", Kind: KindLatency, Target: 0.9}}); err == nil {
		t.Fatal("zero window accepted")
	}
	if _, err := NewEngine([]Objective{{Name: "x", Kind: KindLatency, Target: 1.5, Window: sim.Second}}); err == nil {
		t.Fatal("target outside (0,1) accepted")
	}
}

func TestTelemetryPipelineCapturesBundle(t *testing.T) {
	dir := t.TempDir()
	tel, err := New(Config{
		Seed:      7,
		RingSpans: 64,
		Objectives: []Objective{{
			Name: "avail", Kind: KindAvailability, Target: 0.99,
			Window: sim.Second, MinSamples: 4,
		}},
		BundleRoot: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel.SetSnapshot(func() string { return "# snapshot\nup 1\n" })

	at := sim.Duration(0)
	id := int64(0)
	attempt := func(outcome, group string) {
		at += sim.Millisecond
		id++
		s := span(id, 0, "cn0", at, at+sim.Millisecond/2,
			obs.T("outcome", outcome), obs.T("group", group), obs.T("server", "hdd1"))
		s.Name = "attempt"
		tel.OnSpan(s)
	}
	for i := 0; i < 20; i++ {
		attempt("ok", "0")
	}
	for i := 0; i < 20; i++ {
		attempt("timeout", "1")
	}
	alerts := tel.Alerts()
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	if alerts[0].Detail != "group 1" {
		t.Fatalf("alert blames %q, want group 1", alerts[0].Detail)
	}
	bundles := tel.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("%d bundles, want 1", len(bundles))
	}
	b := bundles[0]
	if b.Alert == nil || b.Reason != "avail" || b.Seed != 7 {
		t.Fatalf("bundle header %+v", b)
	}
	if b.Metrics != "# snapshot\nup 1\n" {
		t.Fatalf("bundle metrics %q", b.Metrics)
	}
	if b.Blame == nil {
		t.Fatal("bundle has no blame table")
	}
	if _, ok := b.Blame.Group["1"]; !ok {
		t.Fatalf("blame table missing group 1: %v", b.Blame.Group)
	}
	if tel.Err() != nil {
		t.Fatal(tel.Err())
	}
	bdir := filepath.Join(dir, b.Dir())
	for _, f := range []string{"alert.txt", "trace.json", "metrics.txt", "blame.txt"} {
		data, err := os.ReadFile(filepath.Join(bdir, f))
		if err != nil {
			t.Fatalf("bundle file %s: %v", f, err)
		}
		if len(data) == 0 {
			t.Fatalf("bundle file %s empty", f)
		}
	}
	sum := b.Summary()
	if !strings.Contains(sum, "avail") || !strings.Contains(sum, "seed: 7") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestCaptureNowManualBundle(t *testing.T) {
	tel, err := New(Config{Seed: 3, Objectives: nil})
	if err != nil {
		t.Fatal(err)
	}
	s := span(1, 0, "cn0", 0, sim.Millisecond)
	tel.OnSpan(s)
	b := tel.CaptureNow("operator poke", sim.Time(sim.Millisecond))
	if b.Alert != nil || b.Reason != "operator poke" || len(b.Spans) != 1 {
		t.Fatalf("manual bundle %+v", b)
	}
	if !strings.HasPrefix(filepath.ToSlash(b.Dir()), "seed-3/operator-poke-") {
		t.Fatalf("bundle dir %q", b.Dir())
	}
}

func TestBundleWriteDeterministic(t *testing.T) {
	build := func(root string) string {
		tel, _ := New(Config{Seed: 1, BundleRoot: root})
		for i := int64(1); i <= 10; i++ {
			tel.OnSpan(span(i, 0, "srv", sim.Duration(i)*sim.Millisecond, sim.Duration(i+1)*sim.Millisecond))
		}
		b := tel.CaptureNow("snap", sim.Time(20*sim.Millisecond))
		dir, err := b.WriteDir(root)
		if err != nil {
			t.Fatal(err)
		}
		var all strings.Builder
		for _, f := range []string{"alert.txt", "trace.json", "metrics.txt", "blame.txt"} {
			data, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			all.Write(data)
		}
		return all.String()
	}
	a := build(t.TempDir())
	b := build(t.TempDir())
	if a != b {
		t.Fatal("bundle bytes differ across identical runs")
	}
}

// Bundles carry the doctor's diagnosis when one is attached via
// SetDoctor, and an explicit placeholder when not.
func TestBundleDoctorArtifact(t *testing.T) {
	dir := t.TempDir()
	tel, err := New(Config{Seed: 3, RingSpans: 16, BundleRoot: dir})
	if err != nil {
		t.Fatal(err)
	}

	bare := tel.CaptureNow("manual", sim.Time(sim.Millisecond))
	if bare.Doctor != "" {
		t.Fatalf("undoctored bundle carries a diagnosis: %q", bare.Doctor)
	}
	data, err := os.ReadFile(filepath.Join(dir, bare.Dir(), "doctor.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "no diagnosis attached\n" {
		t.Fatalf("placeholder doctor.txt = %q", data)
	}

	var askedAt sim.Time
	tel.SetDoctor(func(at sim.Time) string {
		askedAt = at
		return "doctor: 1 finding(s)\n"
	})
	b := tel.CaptureNow("manual", sim.Time(2*sim.Millisecond))
	if askedAt != sim.Time(2*sim.Millisecond) {
		t.Fatalf("doctor asked at %v, want capture instant", askedAt)
	}
	if b.Doctor != "doctor: 1 finding(s)\n" {
		t.Fatalf("bundle doctor = %q", b.Doctor)
	}
	data, err = os.ReadFile(filepath.Join(dir, b.Dir(), "doctor.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != b.Doctor {
		t.Fatalf("doctor.txt = %q, want %q", data, b.Doctor)
	}
	if tel.Err() != nil {
		t.Fatal(tel.Err())
	}
}
