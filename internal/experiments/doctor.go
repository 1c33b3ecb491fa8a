package experiments

import (
	"fmt"

	"harl/internal/cluster"
	"harl/internal/critpath"
	"harl/internal/diagnose"
	"harl/internal/faults"
	"harl/internal/harl"
	"harl/internal/obs"
	"harl/internal/sim"
)

// The doctor experiment: steady-rate write traffic over a both-tier
// diagnostic layout with the streaming sketch layer and anomaly
// detector attached, and — unless running as the fault-free control — a
// seeded mid-run Straggle bout on one server. The acceptance contract
// is that the diagnosis names the straggled server and tier exactly,
// places the onset within two windows of the injection, and classifies
// the cause as `straggle`, while the control run reports clean.
//
// The traffic is open-loop: every request is issued on a fixed virtual
// cadence instead of chained on the previous completion. A closed loop
// convoys on the straggler — once every rank's next request is queued
// behind the slow disk, the healthy servers starve, their windows fall
// below the scoring floor, and the backlog keeps the victim's tail
// inflated long after the bout lifts, smearing the onset estimate. An
// open loop keeps each server's arrival rate constant, so the victim's
// tail rises the moment its service slows and relaxes when the bout
// ends — exactly the signal the detector windows are sized for.

// doctorVictim is the server the seeded straggle targets: h1, an HDD so
// the detector exercises the full six-peer MAD population.
const doctorVictim = 1

// doctorFactor is the injected service-time slowdown. Three keeps the
// straggled disk near (not hopelessly past) saturation at the probe
// rate, so the victim still completes enough ops per window to be
// scored while its tail sits far outside the peer band.
const doctorFactor = 3.0

// doctorReqSize is the probe request size; small requests keep HDD
// service times near a millisecond so a window holds many of them.
const doctorReqSize = 4 << 10

// doctorIssueEvery is the aggregate open-loop cadence: one request
// every 400µs round-robins eight servers, putting each near one op per
// 3.2ms — roughly a third of an HDD's 4KiB service capacity.
const doctorIssueEvery = 400 * sim.Microsecond

// doctorWindowOps sizes the sketch window in issued requests: 80 issues
// per window is ten per server, comfortably above the scoring floor.
const doctorWindowOps = 80

// DoctorRun is one doctor experiment's outcome.
type DoctorRun struct {
	// Report is the ranked diagnosis.
	Report *diagnose.Report

	// Window is the sketch window the detector scored on.
	Window sim.Duration

	// Victim/VictimTier name the straggled server ("" for control runs);
	// StraggleAt/StraggleEnd bound the injected bout.
	Victim      string
	VictimTier  string
	StraggleAt  sim.Duration
	StraggleEnd sim.Duration

	// DetectSeconds is the virtual latency from injection to confirmed
	// diagnosis (Confirmed − StraggleAt); negative when undetected.
	DetectSeconds float64

	// Acked/AckedBytes account the write traffic; End is the virtual
	// time traffic finished.
	Acked      int
	AckedBytes int64
	End        sim.Time
}

// doctorWindow is the sketch window: the time doctorWindowOps issues
// take at the open-loop cadence.
func doctorWindow() sim.Duration {
	return doctorWindowOps * doctorIssueEvery
}

// RunDoctor writes a HARL-planned shared file with the diagnose pipeline
// attached and, when straggle is set, a seeded mid-run service-time
// slowdown on one HDD server. It returns the diagnosis plus enough
// bookkeeping for the acceptance checks.
func RunDoctor(o Options, straggle bool) (*DoctorRun, error) {
	co := o
	co.FileSize = chaosFileSize(o.FileSize)
	const reqSize = doctorReqSize
	cfg := co.iorConfig(co.Ranks, reqSize)

	// The doctor run uses an explicit diagnostic layout rather than a
	// planned one: every region stripes across BOTH tiers so every server
	// serves every window (a planner would park a file this small on the
	// SSDs alone, and a straggling HDD would then be invisible — there
	// would be nothing to diagnose). Four regions give the skew heatmap
	// columns to show.
	rst := harl.RST{}
	regionSize := co.FileSize / 4
	for r := 0; r < 4; r++ {
		rst.Entries = append(rst.Entries, harl.RSTEntry{
			Offset: int64(r) * regionSize,
			End:    int64(r+1) * regionSize,
			H:      reqSize,
			S:      reqSize,
		})
	}
	if err := rst.Validate(); err != nil {
		return nil, err
	}

	// The diagnose pipeline: sketches windowed to the probe cadence, the
	// detector bound to them, and a retained tracer so the classifier can
	// mine critical-path blame. All passive. MinOps drops a little below
	// the ten-ops-per-window design point to keep boundary windows
	// scoreable; the ratio threshold rises to 2 so the two-peer SSD
	// tier's fallback cannot flag ordinary jitter, while a factor-3
	// straggle still clears it easily.
	window := doctorWindow()
	var det *diagnose.Detector
	var tr *obs.Tracer
	s := scenario{cluster: o.clusterDefault(), ranks: cfg.Ranks, policy: o.clientPolicy(), name: "doctor", rst: &rst}
	s.instrument = func(tb *cluster.Testbed) {
		ss := obs.NewSketchSet(tb.Engine, obs.SketchConfig{Window: window})
		det = diagnose.NewDetector(ss, diagnose.Config{MinOps: 6, RatioThreshold: 2})
		tr = obs.NewTracer(tb.Engine)
		tb.FS.Instrument(tr, nil)
		tb.FS.AttachSketches(ss)
		ss.AttachTracer(tr)
	}
	rg, err := o.build(s)
	if err != nil {
		return nil, err
	}
	tb, f, e := rg.tb, rg.f, rg.tb.Engine

	// The collective create already advanced the clock, so everything
	// below schedules relative to now while the sketch windows stay
	// anchored at absolute multiples of the window. base bridges the two.
	base := e.Now().Sub(sim.Time(0))

	run := &DoctorRun{Window: window}
	var flog *faults.Log
	if straggle {
		// Mid-run bout, aligned to an absolute window boundary at least
		// two clean baseline windows out, held for six windows — long
		// enough to confirm mid-bout and to clear after it lifts. The
		// boundary alignment makes "detected within two windows" exact:
		// the first straggled window starts at the injection instant.
		atAbs := ((base+2*window)/window + 1) * window
		bout := 6 * window
		sched := faults.Schedule{
			{At: atAbs - base, Kind: faults.Straggle, Server: doctorVictim, Factor: doctorFactor},
			{At: atAbs - base + bout, Kind: faults.Unstraggle, Server: doctorVictim},
		}
		flog = sched.Apply(e, tb.FS)
		srv := tb.FS.Servers()[doctorVictim]
		run.Victim = srv.Name
		run.VictimTier = "hdd"
		run.StraggleAt = atAbs
		run.StraggleEnd = atAbs + bout
	}

	// Open-loop traffic: request g goes out at g·doctorIssueEvery and
	// writes offset g·reqSize from rank g mod ranks. Walking the file in
	// stripe-unit order makes consecutive issues land on consecutive
	// servers, so every server sees the same uniform arrival rate —
	// rank-major order would instead burst one whole stripe column at a
	// time onto a single server. No watchdog: the only injectable fault
	// here is a straggle, which slows service but never drops a request,
	// so traffic always drains — and an armed far-future timer would
	// leave the clock (and thus the sketch window count) parked well past
	// the traffic.
	ranks := cfg.Ranks
	totalOps := int(co.FileSize / reqSize)
	finished := 0
	for g := 0; g < totalOps; g++ {
		g := g
		e.Schedule(sim.Duration(g)*doctorIssueEvery, func() {
			rank := g % ranks
			off := int64(g) * reqSize
			f.WriteAt(rank, off, chaosPayload(off, reqSize), func(err error) {
				if err == nil {
					run.Acked++
					run.AckedBytes += reqSize
				}
				finished++
				if finished == totalOps {
					run.End = e.Now()
				}
			})
		})
	}
	e.Run()
	if finished != totalOps {
		return nil, fmt.Errorf("doctor: only %d/%d requests finished", finished, totalOps)
	}

	// Correlates: the fired fault log, replication counters, and the
	// critical path's per-server device-time shares.
	cor := diagnose.Correlates{
		Faults:     flog,
		CatchUps:   int(tb.FS.Repl.CatchUps),
		Promotions: int(tb.FS.Repl.Promotions),
	}
	if cp, err := critpath.Analyze(tr.Spans()); err == nil && cp.Blame != nil {
		shares := make(map[string]float64, len(cp.Blame.Server))
		for name, d := range cp.Blame.Server {
			shares[name] = cp.Blame.Share(d)
		}
		cor.BlameShare = shares
	}
	run.Report = det.Diagnose(cor)

	run.DetectSeconds = -1
	if straggle {
		for _, fd := range run.Report.Confirmed(diagnose.CauseStraggle) {
			if fd.Server == run.Victim {
				run.DetectSeconds = fd.Confirmed.Sub(sim.Time(0)).Seconds() - run.StraggleAt.Seconds()
				break
			}
		}
	}
	return run, nil
}

// FigDoctor renders the doctor experiment as a two-row table: the seeded
// straggler run and the fault-free control.
func FigDoctor(o Options) (*Table, error) {
	t := &Table{
		Title:   "Doctor: seeded straggler diagnosis vs fault-free control",
		Columns: []string{"findings", "straggle findings", "detect ms", "window ms", "acked"},
	}
	for _, row := range []struct {
		label    string
		straggle bool
	}{
		{"seeded straggler", true},
		{"fault-free control", false},
	} {
		run, err := RunDoctor(o, row.straggle)
		if err != nil {
			return nil, fmt.Errorf("doctor %q: %w", row.label, err)
		}
		t.Add(row.label,
			float64(len(run.Report.Findings)),
			float64(len(run.Report.Confirmed(diagnose.CauseStraggle))),
			run.DetectSeconds*1e3,
			run.Window.Seconds()*1e3,
			float64(run.Acked))
	}
	return t, nil
}
