package mpiio

import (
	"fmt"
	"sort"
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
	r2f  *harl.R2F
	// bounds[i] is region i's logical byte range; contiguous from 0.
	bounds []regionBound
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
	if m != nil && m.Regions() != len(f.bounds) {
		return fmt.Errorf("mpiio: monitor covers %d regions, file %q has %d",
			m.Regions(), f.name, len(f.bounds))
	}
	f.mon = m
	return nil
}

// Monitor returns the attached workload monitor (nil when detached).
func (f *HARLFile) Monitor() *monitor.Monitor { return f.mon }

// regionBound is one region's logical range.
type regionBound struct {
	Offset int64
	End    int64
}

// Name returns the logical file name.
func (f *HARLFile) Name() string { return f.name }

// RST returns the file's two-tier region stripe table, or nil when the
// file was placed from a TieredRST.
func (f *HARLFile) RST() *harl.RST { return f.rst }

// Regions returns the number of regions backing the file.
func (f *HARLFile) Regions() int { return len(f.bounds) }

// CreateHARL materializes the RST: one physical file per region, named by
// the canonical R2F mapping, striped with the region's pair, opened on
// every rank.
func (w *World) CreateHARL(name string, rst *harl.RST, done func(*HARLFile, error)) {
	if err := rst.Validate(); err != nil {
		done(nil, err)
		return
	}
	if len(rst.Entries) == 0 {
		done(nil, fmt.Errorf("mpiio: empty RST for %q", name))
		return
	}
	hCount, sCount := w.fs.CountRoles()
	f := &HARLFile{
		name:    name,
		rst:     rst,
		r2f:     harl.BuildR2F(name, rst),
		handles: make([][]*pfs.File, len(rst.Entries)),
	}
	for _, e := range rst.Entries {
		f.bounds = append(f.bounds, regionBound{Offset: e.Offset, End: e.End})
	}
	f.instrumentRegions(w.fs.Metrics())
	var createRegion func(i int)
	createRegion = func(i int) {
		if i == len(rst.Entries) {
			f.tagRegionHandles()
			done(f, nil)
			return
		}
		e := rst.Entries[i]
		st := layout.Striping{M: hCount, N: sCount, H: e.H, S: e.S}
		f.handles[i] = make([]*pfs.File, w.Ranks())
		created := func(h *pfs.File, err error) {
			if err != nil {
				done(nil, fmt.Errorf("mpiio: create region %d of %q: %w", i, name, err))
				return
			}
			f.handles[i][0] = h
			w.openRemaining(f.r2f.File(i), f.handles[i], 1, func(err error) {
				if err != nil {
					done(nil, err)
					return
				}
				createRegion(i + 1)
			})
		}
		if e.R > 1 {
			// A replicated region places tier-affine replica groups per
			// slot, rotated by region index so consecutive regions spread
			// their backup load over different servers.
			w.Client(0).CreateReplicated(f.r2f.File(i), st, repl.Place(st, int(e.R), i), created)
		} else {
			w.Client(0).Create(f.r2f.File(i), st, created)
		}
	}
	createRegion(0)
}

// span is one region-local piece of a logical request.
type span struct {
	region int
	local  int64 // offset within the region's physical file
	length int64
}

// split cuts [off, off+size) at region boundaries. Offsets beyond the
// RST's extent fall into the last region, whose physical file simply
// grows — the same behaviour the paper's MDS exhibits for requests past
// the traced range.
func (f *HARLFile) split(off, size int64) []span {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("mpiio: invalid range %d+%d", off, size))
	}
	var spans []span
	pos := off
	end := off + size
	for pos < end {
		ri := f.lookupRegion(pos)
		b := f.bounds[ri]
		// The last region is open-ended: requests past the table's extent
		// keep growing its physical file.
		pieceEnd := b.End
		if ri == len(f.bounds)-1 || pieceEnd > end {
			pieceEnd = end
		}
		spans = append(spans, span{region: ri, local: pos - b.Offset, length: pieceEnd - pos})
		pos = pieceEnd
	}
	return spans
}

// WriteAt implements File: split at region boundaries and fan out.
func (f *HARLFile) WriteAt(rank int, off int64, data []byte, done func(error)) {
	spans := f.split(off, int64(len(data)))
	if len(spans) == 0 {
		f.engine().Schedule(0, func() { done(nil) })
		return
	}
	tr, mpiSpan := f.beginMPI("mpi.write", rank, off, int64(len(data)), len(spans))
	remaining := sim.NewErrCountdown(len(spans), func(err error) {
		if tr != nil {
			tr.End(mpiSpan, obs.T("status", opStatus(err)))
		}
		done(err)
	})
	var consumed int64
	for _, sp := range spans {
		piece := data[consumed : consumed+sp.length]
		consumed += sp.length
		if f.mRegionWrite != nil {
			f.mRegionWrite[sp.region].Add(sp.length)
		}
		f.mon.Observe(device.Write, sp.region, sp.local, sp.length)
		f.handles[sp.region][rank].WriteAtSpan(mpiSpan, piece, sp.local, func(err error) {
			remaining.Done(err)
		})
	}
}

// ReadAt implements File: every region span reads straight into its
// place in the one logical buffer.
func (f *HARLFile) ReadAt(rank int, off, size int64, done func([]byte, error)) {
	spans := f.split(off, size)
	if len(spans) == 0 {
		f.engine().Schedule(0, func() { done(nil, nil) })
		return
	}
	tr, mpiSpan := f.beginMPI("mpi.read", rank, off, size, len(spans))
	out := make([]byte, size)
	remaining := sim.NewErrCountdown(len(spans), func(err error) {
		if tr != nil {
			tr.End(mpiSpan, obs.T("status", opStatus(err)))
		}
		if err != nil {
			done(nil, err)
			return
		}
		done(out, nil)
	})
	var at int64
	for _, sp := range spans {
		if f.mRegionRead != nil {
			f.mRegionRead[sp.region].Add(sp.length)
		}
		f.mon.Observe(device.Read, sp.region, sp.local, sp.length)
		f.handles[sp.region][rank].ReadIntoSpan(mpiSpan, out[at:at+sp.length], sp.local, remaining.Done)
		at += sp.length
	}
}

// beginMPI opens a logical-request span on the issuing rank's client
// track when tracing is on; the per-region PFS operations nest under it.
func (f *HARLFile) beginMPI(name string, rank int, off, size int64, regions int) (*obs.Tracer, obs.SpanID) {
	tr := f.handles[0][0].Tracer()
	if tr == nil {
		return nil, 0
	}
	return tr, tr.Begin(f.handles[0][rank].ClientName(), name, 0,
		obs.T("file", f.name), obs.TInt("rank", int64(rank)),
		obs.TInt("off", off), obs.TInt("bytes", size),
		obs.TInt("regions", int64(regions)))
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
	f.mRegionWrite = make([]*obs.Counter, len(f.bounds))
	f.mRegionRead = make([]*obs.Counter, len(f.bounds))
	for i := range f.bounds {
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
			if s := f.bounds[i].Offset + regionSize; s > size {
				size = s
			}
		}
	}
	return size
}

// lookupRegion returns the region containing the offset; offsets beyond
// the extent map to the last region.
func (f *HARLFile) lookupRegion(off int64) int {
	i := sort.Search(len(f.bounds), func(i int) bool { return f.bounds[i].End > off })
	if i == len(f.bounds) {
		i = len(f.bounds) - 1
	}
	return i
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
	if len(trst.Entries) == 0 {
		done(nil, fmt.Errorf("mpiio: empty tiered RST for %q", name))
		return
	}
	f := &HARLFile{
		name:    name,
		handles: make([][]*pfs.File, len(trst.Entries)),
	}
	for _, e := range trst.Entries {
		f.bounds = append(f.bounds, regionBound{Offset: e.Offset, End: e.End})
	}
	f.instrumentRegions(w.fs.Metrics())
	var createRegion func(i int)
	createRegion = func(i int) {
		if i == len(trst.Entries) {
			f.tagRegionHandles()
			done(f, nil)
			return
		}
		e := trst.Entries[i]
		lo := layout.Tiered{Counts: trst.Counts, Stripes: e.Stripes}
		f.handles[i] = make([]*pfs.File, w.Ranks())
		regionFile := fmt.Sprintf("%s.r%d", name, i)
		w.Client(0).Create(regionFile, lo, func(h *pfs.File, err error) {
			if err != nil {
				done(nil, fmt.Errorf("mpiio: create region %d of %q: %w", i, name, err))
				return
			}
			f.handles[i][0] = h
			w.openRemaining(regionFile, f.handles[i], 1, func(err error) {
				if err != nil {
					done(nil, err)
					return
				}
				createRegion(i + 1)
			})
		})
	}
	createRegion(0)
}

func (f *HARLFile) engine() *sim.Engine {
	return f.handles[0][0].Engine()
}
