package experiments

import (
	"fmt"
	"io"

	"harl/internal/cluster"
	"harl/internal/faults"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/mpiio"
	"harl/internal/repl"
	"harl/internal/sim"
)

// Replication experiments: IOR-style traffic on a HARL plan whose
// regions carry a replication factor, driven through seeded
// replica-targeted crash schedules. Every run ends with a read-back
// verification of read-your-acked-writes: an acked write must be
// durable and byte-exact across crashes, promotions and catch-up.
// Results are comparable structs carrying the processed-event count, so
// the r=1 differential can assert the replication-aware stack replays
// today's protocol event for event.

// ReplShape names one fault-schedule shape of the replication suite.
type ReplShape string

const (
	// ReplShapeCrash is the plain seeded schedule: independent
	// crash/recover episodes with uniformly drawn victims. It consumes
	// exactly the randomness a legacy chaos schedule does, so r=0 and
	// r=1 runs under it see identical fault sequences.
	ReplShapeCrash ReplShape = "crash"
	// ReplShapeDoubleCrash crashes a replica group's primary, then the
	// promoted backup while the primary is still down — the region goes
	// unavailable until a member returns.
	ReplShapeDoubleCrash ReplShape = "double-crash"
	// ReplShapeRecoveryOverlap crashes a backup, recovers it, and
	// crashes the primary right behind the recovery, while the backup
	// may still be replaying the log.
	ReplShapeRecoveryOverlap ReplShape = "recovery-overlap"
)

// shapeMixed is the chaos suite's full fault mix — crash, flaky and
// straggle episodes with uniformly drawn victims — rather than a
// replication shape.
const shapeMixed ReplShape = "mixed"

// ReplShapes lists the suite's shapes in canonical order.
func ReplShapes() []ReplShape {
	return []ReplShape{ReplShapeCrash, ReplShapeDoubleCrash, ReplShapeRecoveryOverlap}
}

// replPayload derives write pass ver's bytes for a range from the
// absolute offset alone, so verification recomputes expected content
// without holding it; the two passes differ in every byte.
func replPayload(ver int, off, size int64) []byte {
	if ver == 0 {
		return chaosPayload(off, size)
	}
	b := make([]byte, size)
	for i := range b {
		x := off + int64(i)
		b[i] = byte(x ^ x>>8 ^ x>>17 ^ 0x29)
	}
	return b
}

// replStamp copies an RST, setting every region's replication factor to
// r; r == 0 leaves the plan exactly as the planner produced it (today's
// protocol), and r == 1 stamps the factor explicitly — same protocol,
// but exercised through the replication-aware validation path.
func replStamp(rst *harl.RST, r int) *harl.RST {
	out := &harl.RST{Entries: append([]harl.RSTEntry(nil), rst.Entries...)}
	if r >= 1 {
		for i := range out.Entries {
			out.Entries[i].R = int64(r)
		}
	}
	return out
}

// replGroupsFor recomputes the replica groups CreateHARL will place for
// the RST — the same repl.Place call with the same per-region rotation
// — keeping the fault generator's targets aligned with the actual
// placement. Only groups with a backup are returned.
func replGroupsFor(rst *harl.RST, clusterCfg cluster.Config) [][]int {
	var groups [][]int
	for i, e := range rst.Entries {
		if e.R <= 1 {
			continue
		}
		st := layout.Striping{M: clusterCfg.HServers, N: clusterCfg.SServers, H: e.H, S: e.S}
		for _, g := range repl.Place(st, int(e.R), i).Groups {
			if len(g) >= 2 {
				groups = append(groups, g)
			}
		}
	}
	return groups
}

// replShapeConfig maps a shape onto the chaos generator's knobs. Flaky
// and straggle bouts are disabled: the replication suite isolates the
// crash/view-change/catch-up protocol; the mixed-fault coverage stays
// with the chaos suite's shapeMixed.
func replShapeConfig(shape ReplShape, fileBytes int64, servers int, groups [][]int) (faults.Config, error) {
	cfg := chaosConfig(fileBytes, servers)
	if shape == shapeMixed {
		return cfg, nil
	}
	cfg.FlakyRuns = -1
	cfg.Straggles = -1
	switch shape {
	case ReplShapeCrash:
		// Default independent crash episodes.
	case ReplShapeDoubleCrash:
		cfg.Crashes = -1
		cfg.DoubleCrashes = 1
		cfg.ReplicaGroups = groups
	case ReplShapeRecoveryOverlap:
		cfg.Crashes = -1
		cfg.RecoveryOverlaps = 1
		cfg.ReplicaGroups = groups
	default:
		return cfg, fmt.Errorf("repl: unknown shape %q", shape)
	}
	if shape != ReplShapeCrash && len(groups) == 0 {
		return cfg, fmt.Errorf("repl: shape %q needs a replicated region (r >= 2)", shape)
	}
	return cfg, nil
}

// FigRepl compares replication factors fault-free (the overhead rows)
// and r=2 under each replica-targeted crash shape: goodput, protocol
// activity, and the integrity verdict. Any integrity violation fails
// the figure — an ack is a durability promise, faults or not.
func FigRepl(o Options) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Replication: IOR writes under replica-targeted faults (chaos seed %d)", o.ChaosSeed),
		Columns: []string{
			"goodput MB/s", "acked", "failed", "unavailable",
			"promotions", "catchup recs", "verified", "integrity",
		},
	}
	rows := []struct {
		label  string
		r      int
		shape  ReplShape
		faults bool
	}{
		{"r=1 fault-free", 1, ReplShapeCrash, false},
		{"r=2 fault-free", 2, ReplShapeCrash, false},
		{"r=3 fault-free", 3, ReplShapeCrash, false},
		{"r=2 crash", 2, ReplShapeCrash, true},
		{"r=2 double-crash", 2, ReplShapeDoubleCrash, true},
		{"r=2 recovery-overlap", 2, ReplShapeRecoveryOverlap, true},
	}
	for _, row := range rows {
		res, err := runReplIOR(o, o.clientPolicy(), row.r, row.shape, row.faults)
		if err != nil {
			return nil, fmt.Errorf("repl %q: %w", row.label, err)
		}
		if res.IntegrityViolations > 0 {
			return nil, fmt.Errorf("repl %q: %d acked ranges failed verification", row.label, res.IntegrityViolations)
		}
		t.Add(row.label,
			res.GoodputMBs, float64(res.Acked), float64(res.Failed),
			float64(res.Repl.Unavailable), float64(res.Repl.Promotions),
			float64(res.Repl.CatchUpRecords), float64(res.Verified),
			float64(res.IntegrityViolations))
	}
	return t, nil
}

// writeSpread writes version ver of [lo, hi) in reqSize requests, split
// evenly over ranks, each rank's share back to back. A failed write
// stops its rank and lands in *errp.
func writeSpread(f mpiio.File, ranks, ver int, lo, hi, reqSize int64, errp *error) {
	span := (hi - lo) / int64(ranks)
	for rk := 0; rk < ranks; rk++ {
		rank, base := rk, lo+int64(rk)*span
		backToBack(int(span/reqSize), func(k int, next func()) {
			off := base + int64(k)*reqSize
			f.WriteAt(rank, off, replPayload(ver, off, reqSize), func(err error) {
				if err != nil {
					*errp = err
					return
				}
				next()
			})
		}, nil)
	}
}

// ReplRecovery measures a crashed replica's rejoin: the virtual time
// from its recovery until every member of every group is chained with
// zero lag, and how much log replay that took.
type ReplRecovery struct {
	// RecoverySeconds is recovery-to-caught-up on the virtual clock.
	RecoverySeconds float64
	// CatchUps counts completed catch-up sessions; LaggedRecords and
	// LaggedBytes are the replayed log volume.
	CatchUps      uint64
	LaggedRecords uint64
	LaggedBytes   uint64
}

// RunReplRecovery populates a replicated file, crashes a backup, fully
// overwrites the file while it is down (every acked write becomes that
// replica's lag), then recovers it and measures the catch-up.
func RunReplRecovery(o Options) (ReplRecovery, error) {
	clusterCfg := o.clusterDefault()
	const ranks = 4
	fileSize := chaosFileSize(o.FileSize)
	reqSize := chaosRequestSize(fileSize)
	rst := &harl.RST{Entries: []harl.RSTEntry{{Offset: 0, End: fileSize, H: 64 << 10, S: 64 << 10, R: 2}}}

	rg, err := o.build(scenario{cluster: clusterCfg, ranks: ranks, policy: o.clientPolicy(), name: "recovery", rst: rst})
	if err != nil {
		return ReplRecovery{}, err
	}
	tb, w, f, e := rg.tb, rg.w, rg.f, rg.tb.Engine

	groups := replGroupsFor(rst, clusterCfg)
	if len(groups) == 0 {
		return ReplRecovery{}, fmt.Errorf("repl recovery: placement produced no replicated group")
	}
	// A backup: its primary keeps serving while it is down, so writes
	// keep acking and the lag accrues entirely on the victim.
	victim := groups[0][1]

	var writeErr error
	w.Run(func() { writeSpread(f, ranks, 0, 0, fileSize, reqSize, &writeErr) })
	if writeErr != nil {
		return ReplRecovery{}, writeErr
	}
	w.Run(func() {
		tb.FS.Crash(victim)
		writeSpread(f, ranks, 1, 0, fileSize, reqSize, &writeErr)
	})
	if writeErr != nil {
		return ReplRecovery{}, writeErr
	}

	name := harl.BuildR2F("recovery", rst).File(0)
	caughtUp := func() bool {
		for _, st := range tb.FS.ReplStatus(name) {
			for _, m := range st.Members {
				if !m.Alive || !m.Chained || m.Lag > 0 {
					return false
				}
			}
		}
		return true
	}
	var recoverAt, caughtAt sim.Time
	stalled := false
	w.Run(func() {
		tb.FS.Recover(victim)
		recoverAt = e.Now()
		var poll func()
		poll = func() {
			if caughtUp() {
				caughtAt = e.Now()
				return
			}
			if e.Now().Sub(recoverAt) > 30*sim.Second {
				stalled = true
				return
			}
			e.Schedule(500*sim.Microsecond, poll)
		}
		poll()
	})
	if stalled {
		return ReplRecovery{}, fmt.Errorf("repl recovery: server %d never caught up", victim)
	}
	return ReplRecovery{
		RecoverySeconds: caughtAt.Sub(recoverAt).Seconds(),
		CatchUps:        tb.FS.Repl.CatchUps,
		LaggedRecords:   tb.FS.Repl.CatchUpRecords,
		LaggedBytes:     tb.FS.Repl.CatchUpBytes,
	}, nil
}

// ReplStatusReport is a per-region replica/view snapshot of a demo
// scenario — the scriptable output behind `harlctl health -repl`.
type ReplStatusReport struct {
	Regions []ReplRegionStatus
}

// ReplRegionStatus is one region's replica groups (empty Slots for an
// unreplicated region).
type ReplRegionStatus struct {
	Region int
	File   string
	R      int64
	Slots  []repl.Status
}

// Unavailable counts slots with no serving member.
func (rep *ReplStatusReport) Unavailable() int {
	n := 0
	for _, rg := range rep.Regions {
		for _, s := range rg.Slots {
			if !s.Available {
				n++
			}
		}
	}
	return n
}

// WriteText renders the report: one line per region, plus a line for
// every slot that is degraded (moved view, dead or lagging member).
func (rep *ReplStatusReport) WriteText(w io.Writer) error {
	var err error
	pf := func(format string, args ...interface{}) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pf("replica/view status: %d regions\n", len(rep.Regions))
	for _, rg := range rep.Regions {
		if len(rg.Slots) == 0 {
			pf("region %d (%s): unreplicated\n", rg.Region, rg.File)
			continue
		}
		moved, unavailable := 0, 0
		for _, s := range rg.Slots {
			if s.View > 0 {
				moved++
			}
			if !s.Available {
				unavailable++
			}
		}
		pf("region %d (%s): r=%d, %d slots, %d view changes, %d unavailable\n",
			rg.Region, rg.File, rg.R, len(rg.Slots), moved, unavailable)
		for _, s := range rg.Slots {
			degraded := s.View > 0 || !s.Available
			for _, m := range s.Members {
				if !m.Alive || !m.Chained || m.Lag > 0 {
					degraded = true
				}
			}
			if !degraded {
				continue
			}
			pf("  slot %d: view %d serving s%d available=%v cp=%d", s.Slot, s.View, s.Serving, s.Available, s.CP)
			for _, m := range s.Members {
				state := "ok"
				if !m.Alive {
					state = "dead"
				} else if m.Stale {
					state = "stale"
				} else if m.Lag > 0 || !m.Chained {
					state = "lagging"
				}
				pf(" s%d=%s(lag %d)", m.Server, state, m.Lag)
			}
			pf("\n")
		}
	}
	return err
}

// RunReplStatus runs the status demo: a half-replicated file, a crashed
// primary mid-write (forcing view changes and lag), and a snapshot of
// every region's replica state while the crash is still in effect.
func RunReplStatus(o Options) (*ReplStatusReport, error) {
	clusterCfg := o.clusterDefault()
	const ranks = 4
	fileSize := chaosFileSize(o.FileSize)
	half := fileSize / 2
	rst := &harl.RST{Entries: []harl.RSTEntry{
		{Offset: 0, End: half, H: 64 << 10, S: 64 << 10},
		{Offset: half, End: fileSize, H: 64 << 10, S: 64 << 10, R: 2},
	}}
	rg, err := o.build(scenario{cluster: clusterCfg, ranks: ranks, policy: o.clientPolicy(), name: "status", rst: rst})
	if err != nil {
		return nil, err
	}
	tb, w, f := rg.tb, rg.w, rg.f

	groups := replGroupsFor(rst, clusterCfg)
	if len(groups) == 0 {
		return nil, fmt.Errorf("repl status: placement produced no replicated group")
	}
	// A primary: crashing it forces promotions, and writes landing after
	// the crash accrue as its replication lag.
	victim := groups[0][0]

	const reqSize = 64 << 10
	var writeErr error
	w.Run(func() { writeSpread(f, ranks, 0, 0, fileSize, reqSize, &writeErr) })
	if writeErr != nil {
		return nil, writeErr
	}
	// The second pass writes only the replicated region: the crashed
	// server also stripes the unreplicated one, where writes would just
	// fail.
	w.Run(func() {
		tb.FS.Crash(victim)
		writeSpread(f, ranks, 1, half, fileSize, reqSize, &writeErr)
	})
	if writeErr != nil {
		return nil, writeErr
	}

	r2f := harl.BuildR2F("status", rst)
	rep := &ReplStatusReport{}
	for i := range rst.Entries {
		rep.Regions = append(rep.Regions, ReplRegionStatus{
			Region: i,
			File:   r2f.File(i),
			R:      rst.Entries[i].R,
			Slots:  tb.FS.ReplStatus(r2f.File(i)),
		})
	}
	return rep, nil
}
