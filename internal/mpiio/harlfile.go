package mpiio

import (
	"fmt"
	"strconv"

	"harl/internal/device"
	"harl/internal/harl"
	"harl/internal/layout"
	"harl/internal/monitor"
	"harl/internal/obs"
	"harl/internal/pfs"
	"harl/internal/repl"
	"harl/internal/sim"
)

// HARLFile is the Placing Phase: a logical file transparently backed by
// one physical PFS file per RST region, each striped with that region's
// optimal (H, S) pair. Requests are split at region boundaries and
// redirected through the region-to-file (R2F) mapping; applications keep
// issuing plain offset/length I/O (Section III-G: "transparent to
// applications").
type HARLFile struct {
	name string
	rst  *harl.RST // nil for files placed from a TieredRST
	// ends[i] is the end of region i's logical byte range; the regions
	// are contiguous from 0 (harl.SplitRegions).
	ends []int64
	// handles[region][rank] is rank's open handle on the region's file.
	handles [][]*pfs.File

	// Per-region traffic counters, pre-resolved at create time when the
	// file system carries a metrics registry; nil slices otherwise.
	mRegionWrite []*obs.Counter
	mRegionRead  []*obs.Counter

	// mon, when attached, observes every region-local span the file
	// issues — the exact traffic the registry counters above count, so
	// the monitor's totals always match them. Nil-safe.
	mon *monitor.Monitor
}

// AttachMonitor feeds the file's per-region traffic into an online
// workload monitor. The monitor's region count must match the file's;
// nil detaches. Attaching never perturbs the simulation: the monitor is
// a passive observer of the virtual clock.
func (f *HARLFile) AttachMonitor(m *monitor.Monitor) error {
	if m != nil && m.Regions() != len(f.ends) {
		return fmt.Errorf("mpiio: monitor covers %d regions, file %q has %d",
			m.Regions(), f.name, len(f.ends))
	}
	f.mon = m
	return nil
}

// Monitor returns the attached workload monitor (nil when detached).
func (f *HARLFile) Monitor() *monitor.Monitor { return f.mon }

// Name returns the logical file name.
func (f *HARLFile) Name() string { return f.name }

// RST returns the file's two-tier region stripe table, or nil when the
// file was placed from a TieredRST.
func (f *HARLFile) RST() *harl.RST { return f.rst }

// Regions returns the number of regions backing the file.
func (f *HARLFile) Regions() int { return len(f.ends) }

// CreateHARL materializes the RST: one physical file per region, striped
// with the region's pair and replicated R ways, opened on every rank.
func (w *World) CreateHARL(name string, rst *harl.RST, done func(*HARLFile, error)) {
	if err := rst.Validate(); err != nil {
		done(nil, err)
		return
	}
	hCount, sCount := w.fs.CountRoles()
	regions := make([]regionFile, len(rst.Entries))
	for i, e := range rst.Entries {
		st := layout.Striping{M: hCount, N: sCount, H: e.H, S: e.S}
		regions[i] = regionFile{end: e.End, lo: st}
		if e.R > 1 {
			// A replicated region places tier-affine replica groups per
			// slot, rotated by region index so consecutive regions spread
			// their backup load over different servers.
			regions[i].replicas = repl.Place(st, int(e.R), i)
		}
	}
	w.createRegions(name, rst, regions, done)
}

// CreateHARLTiered materializes a multi-tier Region Stripe Table: one
// physical file per region, striped with that region's per-tier stripe
// sizes — the Placing Phase of the future-work extension. The file's
// API is identical to a two-tier HARL file.
func (w *World) CreateHARLTiered(name string, trst *harl.TieredRST, done func(*HARLFile, error)) {
	if err := trst.Validate(); err != nil {
		done(nil, err)
		return
	}
	regions := make([]regionFile, len(trst.Entries))
	for i, e := range trst.Entries {
		regions[i] = regionFile{
			end: e.End,
			lo:  layout.Tiered{Counts: trst.Counts, Stripes: e.Stripes},
		}
	}
	w.createRegions(name, nil, regions, done)
}

// regionFile is one region's physical file: the end of the logical range
// it backs, its layout and its replica placement (no groups: one copy).
type regionFile struct {
	end      int64
	lo       layout.Mapper
	replicas repl.Spec
}

// createRegions is the Placing Phase's one region-creation loop: it
// creates the regions' physical files in order from rank 0, named as the
// region-to-file table names them (harl.BuildR2F), opens each on every
// rank, and hands done the logical file over them. rst is the two-tier
// table the file reports, nil for a tiered one.
func (w *World) createRegions(name string, rst *harl.RST, regions []regionFile, done func(*HARLFile, error)) {
	if len(regions) == 0 {
		done(nil, fmt.Errorf("mpiio: empty RST for %q", name))
		return
	}
	f := &HARLFile{
		name:    name,
		rst:     rst,
		handles: make([][]*pfs.File, len(regions)),
	}
	for _, rf := range regions {
		f.ends = append(f.ends, rf.end)
	}
	f.instrumentRegions(w.fs.Metrics())
	var createRegion func(i int)
	createRegion = func(i int) {
		if i == len(regions) {
			f.tagRegionHandles()
			done(f, nil)
			return
		}
		file := fmt.Sprintf("%s.r%d", name, i)
		f.handles[i] = make([]*pfs.File, w.Ranks())
		w.createOpen(file, regions[i].lo, regions[i].replicas, f.handles[i], func(err error) {
			if err != nil {
				done(nil, fmt.Errorf("mpiio: create region %d of %q: %w", i, name, err))
				return
			}
			createRegion(i + 1)
		})
	}
	createRegion(0)
}

// WriteAt implements File: split at region boundaries and fan out.
func (f *HARLFile) WriteAt(rank int, off int64, data []byte, done func(error)) {
	fanOut(f, device.Write, rank, off, int64(len(data)), done, callDone, func(h *pfs.File, parent obs.SpanID, sp harl.Piece, at int64, done func(error)) {
		h.WriteAtSpan(parent, data[at:at+sp.Length], sp.Local, done)
	})
}

// ReadAt implements File: every region span reads straight into its
// place in the one logical buffer.
func (f *HARLFile) ReadAt(rank int, off, size int64, done func([]byte, error)) {
	out := make([]byte, size)
	fanOut(f, device.Read, rank, off, size, readResult{out, done}, readResult.deliver, func(h *pfs.File, parent obs.SpanID, sp harl.Piece, at int64, done func(error)) {
		h.ReadIntoSpan(parent, out[at:at+sp.Length], sp.Local, done)
	})
}

// readResult is ReadAt's completion state: the logical buffer and the
// callback it is delivered to.
type readResult struct {
	out  []byte
	done func([]byte, error)
}

// deliver is ReadAt's finish: the buffer on success, else the error.
func (r readResult) deliver(err error) {
	if err != nil {
		r.done(nil, err)
		return
	}
	r.done(r.out, nil)
}

// callDone is fanOut's finish for a caller whose completion state is
// its callback.
func callDone(done func(error), err error) { done(err) }

// fanOut issues one logical request of size bytes at off. It splits the
// range at region boundaries and, span by span, counts the span in its
// region's traffic counter and the monitor, then makes the span's one
// pfs call through issue on the rank's handle of the span's region; at
// is the span's offset within the request. Once every span has
// completed, finish(result, err) runs with the first error. result is
// the caller's completion state: the one completion closure carries it,
// so no request pays a second closure to adapt its callback.
func fanOut[R any](f *HARLFile, op device.Op, rank int, off, size int64, result R, finish func(R, error), issue func(h *pfs.File, parent obs.SpanID, sp harl.Piece, at int64, done func(error))) {
	spans := harl.SplitRegions(f.ends, off, size)
	if len(spans) == 0 {
		f.handles[0][0].Engine().Schedule(0, func() { finish(result, nil) })
		return
	}
	name, counters := "mpi.write", f.mRegionWrite
	if op == device.Read {
		name, counters = "mpi.read", f.mRegionRead
	}
	// With tracing on, the logical request is a span on the issuing
	// rank's client track, and the per-region pfs operations nest under it.
	tr := f.handles[0][0].Tracer()
	var mpiSpan obs.SpanID
	if tr != nil {
		mpiSpan = tr.Begin(f.handles[0][rank].ClientName(), name, 0,
			obs.T("file", f.name), obs.TInt("rank", int64(rank)),
			obs.TInt("off", off), obs.TInt("bytes", size),
			obs.TInt("regions", int64(len(spans))))
	}
	remaining := sim.NewCountdown(len(spans), func(err error) {
		if tr != nil {
			tr.End(mpiSpan, obs.T("status", opStatus(err)))
		}
		finish(result, err)
	})
	var at int64
	for _, sp := range spans {
		if counters != nil {
			counters[sp.Region].Add(sp.Length)
		}
		f.mon.Observe(op, sp.Region, sp.Local, sp.Length)
		issue(f.handles[sp.Region][rank], mpiSpan, sp, at, remaining.Done)
		at += sp.Length
	}
}

// opStatus renders an operation's error as a span status tag.
func opStatus(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// tagRegionHandles stamps every rank's handle with its region index, so
// the pfs.read/pfs.write spans the handles open carry a "region" tag —
// the hook the critical-path analyzer's per-region blame rides on — and
// the handles attribute their traffic to the region in the sketch
// layer's skew heatmap.
func (f *HARLFile) tagRegionHandles() {
	for i, hs := range f.handles {
		for _, h := range hs {
			h.SetSpanTags(obs.TInt("region", int64(i)))
			h.SetRegion(i)
		}
	}
}

// instrumentRegions pre-resolves the per-region traffic counters so the
// request path never touches the registry map. No-op without a registry.
func (f *HARLFile) instrumentRegions(reg *obs.Registry) {
	if reg == nil {
		return
	}
	f.mRegionWrite = make([]*obs.Counter, len(f.ends))
	f.mRegionRead = make([]*obs.Counter, len(f.ends))
	for i := range f.ends {
		labels := []obs.Tag{obs.T("file", f.name), obs.T("region", strconv.Itoa(i))}
		f.mRegionWrite[i] = reg.Counter("mpi_region_write_bytes_total", labels...)
		f.mRegionRead[i] = reg.Counter("mpi_region_read_bytes_total", labels...)
	}
}

// Size returns the logical EOF: the largest region end containing data,
// derived from the per-region physical sizes.
func (f *HARLFile) Size() int64 {
	var size int64
	for i, hs := range f.handles {
		if regionSize := hs[0].Size(); regionSize > 0 {
			var start int64
			if i > 0 {
				start = f.ends[i-1]
			}
			if s := start + regionSize; s > size {
				size = s
			}
		}
	}
	return size
}
