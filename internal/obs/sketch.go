package obs

import (
	"fmt"

	"harl/internal/sim"
	"harl/internal/stats"
)

// The sketch layer is the continuous per-server observability the
// heterogeneity story needs: mergeable per-server × per-op quantile
// digests of disk wait/service/total latency, queue-depth and busy-time
// series windowed on the virtual clock, per-node network transfer
// digests, and a region × server byte/latency matrix (the skew heatmap).
// It is fed from the pfs disk-completion hook, the client sub-request
// path and the netsim transfer completion, and consumed by the
// internal/diagnose anomaly detector through the OnWindow callback.
//
// The layer inherits the package's passive-observer contract: it never
// schedules events or draws engine randomness — windows roll lazily when
// an observation arrives past the boundary, exactly like the PR 5
// monitor — and a nil *SketchSet is a valid disabled instance, so feed
// points call unconditionally.

// DefaultSketchWindow is the default sliding-window length, matching the
// workload monitor's.
const DefaultSketchWindow = 50 * sim.Millisecond

// SketchConfig tunes the sketch layer.
type SketchConfig struct {
	// Window is the time-series window on the virtual clock; 0 means
	// DefaultSketchWindow.
	Window sim.Duration
	// Alpha is the digests' relative accuracy; 0 means
	// stats.DefaultSketchAlpha.
	Alpha float64
}

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Window == 0 {
		c.Window = DefaultSketchWindow
	}
	if c.Alpha == 0 {
		c.Alpha = stats.DefaultSketchAlpha
	}
	return c
}

// ServerWindow is one server's closed-window summary, in seconds of
// virtual time. Latency quantiles cover total disk latency (queue wait
// plus service); empty windows carry zero quantiles and Ops == 0.
type ServerWindow struct {
	Server string
	Tier   string
	End    sim.Time

	Ops      int64
	ReadOps  int64
	WriteOps int64
	Bytes    int64

	P50, P99   float64 // total latency (wait + service)
	WaitP99    float64
	ServiceP50 float64
	ServiceP99 float64
	Busy       float64 // summed service seconds completed in the window
	Util       float64 // Busy over the window length
	MaxQueue   int     // deepest observed disk queue
}

// serverSketch is one server's accumulator: cumulative per-op digests
// plus the open window.
type serverSketch struct {
	name string
	tier string

	// Cumulative digests indexed by op (0 read, 1 write).
	lat     [2]*stats.QuantileSketch
	wait    [2]*stats.QuantileSketch
	service [2]*stats.QuantileSketch
	ops     [2]int64
	bytes   [2]int64

	// Open-window accumulators.
	wLat      *stats.QuantileSketch
	wWait     *stats.QuantileSketch
	wService  *stats.QuantileSketch
	wReadOps  int64
	wWriteOps int64
	wBytes    int64
	wBusy     float64
	wMaxQueue int
}

func (s *serverSketch) resetWindow() {
	s.wLat.Reset()
	s.wWait.Reset()
	s.wService.Reset()
	s.wReadOps, s.wWriteOps, s.wBytes = 0, 0, 0
	s.wBusy = 0
	s.wMaxQueue = 0
}

// heatCell is one (server, region) cell of the skew heatmap.
type heatCell struct {
	Bytes      int64
	Ops        int64
	LatSeconds float64
	winBytes   int64
}

// netSketch is one node's cumulative transfer digest.
type netSketch struct {
	name  string
	lat   *stats.QuantileSketch
	xfers int64
	bytes int64
}

// SketchSet is the streaming sketch layer for one file system. Construct
// with NewSketchSet; nil is a disabled set.
type SketchSet struct {
	engine *sim.Engine
	cfg    SketchConfig
	tracer *Tracer

	windowStart sim.Time
	windows     int

	servers []*serverSketch
	heat    [][]heatCell // [server][region]
	regions int

	nets   []*netSketch
	netIdx map[string]int

	onWindow func(end sim.Time, window sim.Duration, servers []ServerWindow)
}

// NewSketchSet builds an enabled, empty sketch set on the engine's
// virtual clock. Servers are registered by the file system at attach
// time (AddServer).
func NewSketchSet(e *sim.Engine, cfg SketchConfig) *SketchSet {
	if e == nil {
		panic("obs: sketch set needs an engine")
	}
	if cfg.Window < 0 {
		panic(fmt.Sprintf("obs: negative sketch window %v", cfg.Window))
	}
	cfg = cfg.withDefaults()
	return &SketchSet{
		engine:      e,
		cfg:         cfg,
		windowStart: e.Now(),
		netIdx:      make(map[string]int),
	}
}

// Enabled reports whether the set records anything.
func (ss *SketchSet) Enabled() bool { return ss != nil }

// Window returns the configured window length (0 when disabled).
func (ss *SketchSet) Window() sim.Duration {
	if ss == nil {
		return 0
	}
	return ss.cfg.Window
}

// AttachTracer routes window-close gauges onto tr as Perfetto counter
// samples: per-server total-latency p99 on the "sketch" track and the
// per-window heatmap bytes on "heatmap/<server>" tracks. Nil detaches.
func (ss *SketchSet) AttachTracer(tr *Tracer) {
	if ss == nil {
		return
	}
	ss.tracer = tr
}

// OnWindow installs the window-close callback — the diagnose detector's
// feed. The callback must itself be passive; it receives every server's
// summary (including empty ones, so peer populations stay aligned) at
// each boundary.
func (ss *SketchSet) OnWindow(fn func(end sim.Time, window sim.Duration, servers []ServerWindow)) {
	if ss == nil {
		return
	}
	ss.onWindow = fn
}

// AddServer registers a server and returns its dense sketch index. Order
// of registration fixes reporting order; pfs registers servers in index
// order at attach time.
func (ss *SketchSet) AddServer(name, tier string) int {
	if ss == nil {
		return -1
	}
	alpha := ss.cfg.Alpha
	s := &serverSketch{
		name:     name,
		tier:     tier,
		wLat:     stats.NewQuantileSketch(alpha),
		wWait:    stats.NewQuantileSketch(alpha),
		wService: stats.NewQuantileSketch(alpha),
	}
	for op := 0; op < 2; op++ {
		s.lat[op] = stats.NewQuantileSketch(alpha)
		s.wait[op] = stats.NewQuantileSketch(alpha)
		s.service[op] = stats.NewQuantileSketch(alpha)
	}
	ss.servers = append(ss.servers, s)
	ss.heat = append(ss.heat, nil)
	return len(ss.servers) - 1
}

// NumServers returns how many servers are registered.
func (ss *SketchSet) NumServers() int {
	if ss == nil {
		return 0
	}
	return len(ss.servers)
}

// ServerInfo names a registered server.
type ServerInfo struct {
	Name string
	Tier string
}

// ServerInfos returns the registered servers in index order.
func (ss *SketchSet) ServerInfos() []ServerInfo {
	if ss == nil {
		return nil
	}
	out := make([]ServerInfo, len(ss.servers))
	for i, s := range ss.servers {
		out[i] = ServerInfo{Name: s.name, Tier: s.tier}
	}
	return out
}

// ObserveDisk feeds one completed disk pass for server id: queue wait,
// service time and payload size. Nil-safe.
func (ss *SketchSet) ObserveDisk(id int, write bool, wait, service sim.Duration, bytes int64) {
	if ss == nil {
		return
	}
	ss.roll(ss.engine.Now())
	s := ss.servers[id]
	op := 0
	if write {
		op = 1
		s.wWriteOps++
	} else {
		s.wReadOps++
	}
	ws, sv := wait.Seconds(), service.Seconds()
	total := ws + sv
	s.lat[op].Add(total)
	s.wait[op].Add(ws)
	s.service[op].Add(sv)
	s.ops[op]++
	s.bytes[op] += bytes
	s.wLat.Add(total)
	s.wWait.Add(ws)
	s.wService.Add(sv)
	s.wBytes += bytes
	s.wBusy += sv
}

// ObserveQueue samples server id's in-flight disk queue depth. Nil-safe.
func (ss *SketchSet) ObserveQueue(id, depth int) {
	if ss == nil {
		return
	}
	ss.roll(ss.engine.Now())
	if s := ss.servers[id]; depth > s.wMaxQueue {
		s.wMaxQueue = depth
	}
}

// ObserveRegion accounts one resolved sub-request to the skew heatmap:
// region × server bytes, request count and client-observed latency.
// Nil-safe; region < 0 (a handle without region attribution) is ignored.
func (ss *SketchSet) ObserveRegion(region, id int, bytes int64, lat sim.Duration) {
	if ss == nil || region < 0 {
		return
	}
	ss.roll(ss.engine.Now())
	if region >= ss.regions {
		ss.regions = region + 1
	}
	row := ss.heat[id]
	for len(row) <= region {
		row = append(row, heatCell{})
	}
	row[region].Bytes += bytes
	row[region].Ops++
	row[region].LatSeconds += lat.Seconds()
	row[region].winBytes += bytes
	ss.heat[id] = row
}

// ObserveNet feeds one completed network transfer landing at node:
// submission-to-last-byte latency and size. Nil-safe.
func (ss *SketchSet) ObserveNet(node string, lat sim.Duration, bytes int64) {
	if ss == nil {
		return
	}
	ss.roll(ss.engine.Now())
	idx, ok := ss.netIdx[node]
	if !ok {
		idx = len(ss.nets)
		ss.netIdx[node] = idx
		ss.nets = append(ss.nets, &netSketch{name: node, lat: stats.NewQuantileSketch(ss.cfg.Alpha)})
	}
	n := ss.nets[idx]
	n.lat.Add(lat.Seconds())
	n.xfers++
	n.bytes += bytes
}

// roll closes every window boundary passed since the last observation.
// Lazy, like the monitor — no scheduled events.
func (ss *SketchSet) roll(now sim.Time) {
	for now.Sub(ss.windowStart) >= ss.cfg.Window {
		end := ss.windowStart.Add(ss.cfg.Window)
		ss.closeWindow(end)
		ss.windowStart = end
	}
}

// closeWindow summarizes every server's open window at the boundary,
// hands the aligned population to the OnWindow sink, emits tracer
// gauges, and resets the accumulators.
func (ss *SketchSet) closeWindow(end sim.Time) {
	ss.windows++
	wsecs := ss.cfg.Window.Seconds()
	var wins []ServerWindow
	if ss.onWindow != nil {
		wins = make([]ServerWindow, len(ss.servers))
	}
	for i, s := range ss.servers {
		var w ServerWindow
		w.Server, w.Tier, w.End = s.name, s.tier, end
		w.ReadOps, w.WriteOps = s.wReadOps, s.wWriteOps
		w.Ops = s.wReadOps + s.wWriteOps
		w.Bytes = s.wBytes
		w.Busy = s.wBusy
		w.MaxQueue = s.wMaxQueue
		if wsecs > 0 {
			w.Util = s.wBusy / wsecs
		}
		if w.Ops > 0 {
			w.P50, _ = s.wLat.Quantile(0.5)
			w.P99, _ = s.wLat.Quantile(0.99)
			w.WaitP99, _ = s.wWait.Quantile(0.99)
			w.ServiceP50, _ = s.wService.Quantile(0.5)
			w.ServiceP99, _ = s.wService.Quantile(0.99)
		}
		if tr := ss.tracer; tr != nil && w.Ops > 0 {
			tr.Counter("sketch", "p99ms."+s.name, end, w.P99*1e3)
			tr.Counter("sketch", "util."+s.name, end, w.Util)
		}
		if wins != nil {
			wins[i] = w
		}
		s.resetWindow()
	}
	if tr := ss.tracer; tr != nil {
		for i, s := range ss.servers {
			for r := range ss.heat[i] {
				if wb := ss.heat[i][r].winBytes; wb > 0 {
					tr.Counter("heatmap/"+s.name, fmt.Sprintf("region%d.bytes", r), end, float64(wb))
				}
			}
		}
	}
	for i := range ss.heat {
		for r := range ss.heat[i] {
			ss.heat[i][r].winBytes = 0
		}
	}
	if ss.onWindow != nil {
		ss.onWindow(end, ss.cfg.Window, wins)
	}
}

// Flush closes every window boundary up to the engine's current time —
// call at end of run so trailing windows reach the sink.
func (ss *SketchSet) Flush() {
	if ss == nil {
		return
	}
	ss.roll(ss.engine.Now())
}

// Windows returns how many windows have closed.
func (ss *SketchSet) Windows() int {
	if ss == nil {
		return 0
	}
	return ss.windows
}

// ServerDigest returns server id's cumulative total-latency digest for
// an op (false read, true write). The returned sketch is live — callers
// must not mutate it; merge into a fresh sketch instead.
func (ss *SketchSet) ServerDigest(id int, write bool) *stats.QuantileSketch {
	if ss == nil {
		return nil
	}
	op := 0
	if write {
		op = 1
	}
	return ss.servers[id].lat[op]
}

// ServerOps returns server id's cumulative (reads, writes, bytes).
func (ss *SketchSet) ServerOps(id int) (reads, writes, bytes int64) {
	if ss == nil {
		return 0, 0, 0
	}
	s := ss.servers[id]
	return s.ops[0], s.ops[1], s.bytes[0] + s.bytes[1]
}

// TierDigest merges every same-tier server's cumulative digest for an op
// into a fresh sketch — the per-tier view the digests' mergeability
// exists for.
func (ss *SketchSet) TierDigest(tier string, write bool) *stats.QuantileSketch {
	if ss == nil {
		return nil
	}
	op := 0
	if write {
		op = 1
	}
	out := stats.NewQuantileSketch(ss.cfg.Alpha)
	for _, s := range ss.servers {
		if s.tier == tier {
			out.Merge(s.lat[op])
		}
	}
	return out
}

// NetStat is one node's cumulative transfer summary.
type NetStat struct {
	Node  string
	Xfers int64
	Bytes int64
	P50   float64
	P99   float64
}

// NetStats returns per-node transfer digests in first-seen order —
// deterministic, since transfers replay identically per seed.
func (ss *SketchSet) NetStats() []NetStat {
	if ss == nil {
		return nil
	}
	out := make([]NetStat, len(ss.nets))
	for i, n := range ss.nets {
		st := NetStat{Node: n.name, Xfers: n.xfers, Bytes: n.bytes}
		st.P50, _ = n.lat.Quantile(0.5)
		st.P99, _ = n.lat.Quantile(0.99)
		out[i] = st
	}
	return out
}

// HeatCell is one (server, region) heatmap cell.
type HeatCell struct {
	Bytes      int64
	Ops        int64
	LatSeconds float64
}

// Heatmap is the region × server byte/latency matrix.
type Heatmap struct {
	Servers []ServerInfo
	Regions int
	// Cells is indexed [server][region]; rows are padded to Regions.
	Cells [][]HeatCell
}

// TotalBytes sums the matrix.
func (h *Heatmap) TotalBytes() int64 {
	var total int64
	for _, row := range h.Cells {
		for _, c := range row {
			total += c.Bytes
		}
	}
	return total
}

// ServerBytes sums one server's row.
func (h *Heatmap) ServerBytes(i int) int64 {
	var total int64
	for _, c := range h.Cells[i] {
		total += c.Bytes
	}
	return total
}

// Heatmap snapshots the region × server matrix (nil when disabled or
// empty).
func (ss *SketchSet) Heatmap() *Heatmap {
	if ss == nil || ss.regions == 0 {
		return nil
	}
	h := &Heatmap{Servers: ss.ServerInfos(), Regions: ss.regions}
	h.Cells = make([][]HeatCell, len(ss.servers))
	for i := range ss.servers {
		row := make([]HeatCell, ss.regions)
		for r, c := range ss.heat[i] {
			row[r] = HeatCell{Bytes: c.Bytes, Ops: c.Ops, LatSeconds: c.LatSeconds}
		}
		h.Cells[i] = row
	}
	return h
}
