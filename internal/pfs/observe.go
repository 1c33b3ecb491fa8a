package pfs

import (
	"harl/internal/device"
	"harl/internal/obs"
	"harl/internal/sim"
)

// Observability wiring. Instrument attaches a tracer and metrics registry
// to the file system; both are passive observers that read the virtual
// clock but never schedule events or draw from the engine RNG, so an
// instrumented run executes the exact event sequence of a bare one. Left
// uninstrumented, every hook below degenerates to nil-safe no-ops.

// TierObserver receives every completed disk pass, attributed to the
// serving tier. Implementations must honor the same passive-observer
// contract as the tracer: no event scheduling, no engine RNG draws.
// monitor.Monitor implements it.
type TierObserver interface {
	ObserveTier(role device.Kind, op device.Op, bytes int64)
}

// SetTierObserver attaches (or, with nil, detaches) a per-tier traffic
// observer. Independent of Instrument, so a monitor can run without
// tracing.
func (fs *FS) SetTierObserver(o TierObserver) { fs.tierObs = o }

// tierName renders a device kind as a metric/tag label.
func tierName(k device.Kind) string {
	if k == device.HDD {
		return "hdd"
	}
	return "ssd"
}

// Instrument attaches observability instruments. Either argument may be
// nil to enable only the other. Per-server disk counters are resolved
// once here so the serve path never touches the registry map.
func (fs *FS) Instrument(tr *obs.Tracer, reg *obs.Registry) {
	fs.tracer = tr
	fs.metrics = reg
	fs.opMetrics = [2]*opInstruments{}
	fs.net.Instrument(tr)
	for _, s := range fs.servers {
		labels := []obs.Tag{obs.T("server", s.Name), obs.T("tier", tierName(s.Role()))}
		s.mOps = reg.Counter("pfs_disk_ops_total", labels...)
		s.mServiceNs = reg.Counter("pfs_disk_service_ns_total", labels...)
		s.mWaitNs = reg.Counter("pfs_disk_wait_ns_total", labels...)
	}
}

// AttachSketches wires the streaming sketch layer: every server is
// registered with the set (index order, so sketch indices match server
// IDs densely), and the network forwards transfer completions to the
// same set. Like Instrument, the sketches are passive — the serve path
// feeds them with values it already computes and never branches on
// their presence beyond a nil check. Attach before traffic; nil
// detaches.
func (fs *FS) AttachSketches(ss *obs.SketchSet) {
	fs.sketches = ss
	fs.net.AttachSketches(ss)
	if ss == nil {
		for _, s := range fs.servers {
			s.sketchID = -1
		}
		return
	}
	for _, s := range fs.servers {
		s.sketchID = ss.AddServer(s.Name, tierName(s.Role()))
	}
}

// Tracer returns the attached tracer (nil when uninstrumented).
func (fs *FS) Tracer() *obs.Tracer { return fs.tracer }

// Metrics returns the attached registry (nil when uninstrumented).
func (fs *FS) Metrics() *obs.Registry { return fs.metrics }

// SyncMetrics mirrors the file system's accumulated state — per-server
// gauges, fault counters, MDS lookups, engine progress — into the
// attached registry, stamping a consistent snapshot for WriteText. Safe
// to call any number of times; no-op when uninstrumented.
func (fs *FS) SyncMetrics() {
	reg := fs.metrics
	if reg == nil {
		return
	}
	for _, s := range fs.servers {
		labels := []obs.Tag{obs.T("server", s.Name), obs.T("tier", tierName(s.Role()))}
		reg.Gauge("pfs_disk_busy_seconds", labels...).Set(s.DiskBusy().Seconds())
		reg.Gauge("pfs_disk_utilization", labels...).Set(s.DiskUtilization())
		reg.Gauge("pfs_stored_bytes", labels...).Set(float64(s.stored))
		reg.Gauge("pfs_capacity_utilization", labels...).Set(s.Utilization())
		reg.Gauge("pfs_disk_queue_max", labels...).Set(float64(s.maxQueued))
		reg.Gauge("pfs_disk_queue_depth", labels...).Set(float64(s.queued))
		reg.Gauge("pfs_server_slow_factor", labels...).Set(s.SlowFactor)
		reg.Gauge("pfs_server_health", labels...).Set(float64(fs.health[s.ID]))
	}
	f := &fs.Faults
	reg.Counter("pfs_fault_crashes_total").Set(int64(f.Crashes))
	reg.Counter("pfs_fault_recoveries_total").Set(int64(f.Recoveries))
	reg.Counter("pfs_fault_dropped_total").Set(int64(f.Dropped))
	reg.Counter("pfs_fault_flaky_errs_total").Set(int64(f.FlakyErrs))
	reg.Counter("pfs_fault_timeouts_total").Set(int64(f.Timeouts))
	reg.Counter("pfs_fault_retries_total").Set(int64(f.Retries))
	reg.Counter("pfs_fault_hedges_total").Set(int64(f.Hedges))
	reg.Counter("pfs_fault_hedge_wins_total").Set(int64(f.HedgeWins))
	reg.Counter("pfs_fault_failfasts_total").Set(int64(f.FailFasts))
	reg.Counter("pfs_mds_lookups_total").Set(int64(fs.MDSLookups))
	if len(fs.replFiles) > 0 {
		// Replication counters appear only once a replicated file exists,
		// keeping legacy metric output byte-identical.
		r := &fs.Repl
		reg.Counter("pfs_repl_chain_writes_total").Set(int64(r.ChainWrites))
		reg.Counter("pfs_repl_quorum_writes_total").Set(int64(r.QuorumWrites))
		reg.Counter("pfs_repl_forwards_total").Set(int64(r.Forwards))
		reg.Counter("pfs_repl_forward_bytes_total").Set(int64(r.ForwardBytes))
		reg.Counter("pfs_repl_backup_reads_total").Set(int64(r.BackupReads))
		reg.Counter("pfs_repl_promotions_total").Set(int64(r.Promotions))
		reg.Counter("pfs_repl_unavailable_total").Set(int64(r.Unavailable))
		reg.Counter("pfs_repl_catchups_total").Set(int64(r.CatchUps))
		reg.Counter("pfs_repl_catchup_records_total").Set(int64(r.CatchUpRecords))
		reg.Counter("pfs_repl_catchup_bytes_total").Set(int64(r.CatchUpBytes))
		reg.Counter("pfs_repl_resyncs_total").Set(int64(r.Resyncs))
		reg.Counter("pfs_repl_resync_bytes_total").Set(int64(r.ResyncBytes))
		// Live group state: summed view numbers (view churn), members
		// currently stale (hard-pruned replay gap), and the worst replay
		// lag across all groups — the signals the SLO engine alerts on.
		var views, stale, maxLag int64
		for _, meta := range fs.replFiles {
			for _, rg := range meta.Repl.groups {
				views += int64(rg.g.View())
				for _, id := range rg.members {
					if rg.g.Stale(id) {
						stale++
					}
					if lag := int64(rg.g.Lag(id)); lag > maxLag {
						maxLag = lag
					}
				}
			}
		}
		reg.Gauge("pfs_repl_views").Set(float64(views))
		reg.Gauge("pfs_repl_stale_members").Set(float64(stale))
		reg.Gauge("pfs_repl_max_lag_records").Set(float64(maxLag))
	}
	reg.Counter("sim_events_processed_total").Set(int64(fs.engine.Processed))
	fs.net.SyncMetrics(reg)
}

// enqueue tracks disk queue depth at submission. With sketches attached
// the depth is also sampled into the time series and emitted as a
// Perfetto counter on the server's track; both paths are gated on the
// sketch set so legacy traces stay byte-identical.
func (s *Server) enqueue() {
	s.queued++
	if s.queued > s.maxQueued {
		s.maxQueued = s.queued
	}
	if ss := s.fs.sketches; ss != nil {
		ss.ObserveQueue(s.sketchID, s.queued)
		if tr := s.fs.tracer; tr != nil {
			tr.Counter(s.Name, "queue", s.fs.engine.Now(), float64(s.queued))
		}
	}
}

// observeDisk records one completed disk pass: queue-depth bookkeeping,
// per-server counters, and — when tracing — a "disk.wait" span for the
// time the request sat in the disk queue plus a "disk.read"/"disk.write"
// span for the service itself, both on the server's track.
func (s *Server) observeDisk(op device.Op, parent obs.SpanID, submit, start, end sim.Time, size int64) {
	s.queued--
	s.mOps.Inc()
	s.mServiceNs.Add(int64(end.Sub(start)))
	s.mWaitNs.Add(int64(start.Sub(submit)))
	if ss := s.fs.sketches; ss != nil {
		ss.ObserveDisk(s.sketchID, op == device.Write, start.Sub(submit), end.Sub(start), size)
		ss.ObserveQueue(s.sketchID, s.queued)
		if tr := s.fs.tracer; tr != nil {
			tr.Counter(s.Name, "queue", s.fs.engine.Now(), float64(s.queued))
		}
	}
	if s.fs.tierObs != nil {
		s.fs.tierObs.ObserveTier(s.Role(), op, size)
	}
	tr := s.fs.tracer
	if tr == nil {
		return
	}
	tier := tierName(s.Role())
	if start > submit {
		tr.Emit(s.Name, "disk.wait", parent, submit, start,
			obs.T("tier", tier), obs.TInt("bytes", size))
	}
	name := "disk.read"
	if op == device.Write {
		name = "disk.write"
	}
	tr.Emit(s.Name, name, parent, start, end,
		obs.T("tier", tier), obs.TInt("bytes", size))
}
