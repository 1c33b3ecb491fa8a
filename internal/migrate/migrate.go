// Package migrate implements the on-line data-migration extension the
// paper sketches in its discussion and future work (Section IV-D, V):
// HARL's SServer-heavy layouts consume disproportionate SSD space, so
// when an SServer approaches its capacity a background migrator moves
// whole files onto more HServer-heavy layouts, keeping space available
// for new performance-critical data.
//
// The migrator runs inside the simulation: it periodically samples
// SServer utilization, picks the file with the most bytes on the fullest
// SServer, and re-stripes it through a regular client — reading region
// data over the network and writing it back under the new layout — so
// migration traffic competes with foreground I/O exactly as it would in
// a real system.
package migrate

import (
	"fmt"

	"harl/internal/layout"
	"harl/internal/pfs"
	"harl/internal/sim"
)

// Policy configures the migrator.
type Policy struct {
	// HighWatermark triggers migration when an SServer's utilization
	// (stored bytes / device capacity) exceeds it.
	HighWatermark float64
	// LowWatermark stops migrating once every SServer is below it.
	LowWatermark float64
	// CheckInterval is the sampling period on the virtual clock.
	CheckInterval sim.Duration
	// CopyChunk bounds each copy request's size (default 4 MiB).
	CopyChunk int64
}

// Validate reports whether the policy is usable.
func (p Policy) Validate() error {
	switch {
	case p.HighWatermark <= 0 || p.HighWatermark > 1:
		return fmt.Errorf("migrate: high watermark %v outside (0,1]", p.HighWatermark)
	case p.LowWatermark < 0 || p.LowWatermark > p.HighWatermark:
		return fmt.Errorf("migrate: low watermark %v outside [0, high]", p.LowWatermark)
	case p.CheckInterval <= 0:
		return fmt.Errorf("migrate: non-positive check interval")
	case p.CopyChunk < 0:
		return fmt.Errorf("migrate: negative copy chunk")
	}
	return nil
}

// HalveSServerShare is the migrator's relayout: halve the SServer stripe
// (grid-aligned, at least one 4 KB step) and grow the HServer stripe to
// preserve the round size, shifting roughly half of the file's SSD bytes
// to HDDs.
func HalveSServerShare(lo layout.Mapper) (layout.Mapper, error) {
	st, ok := lo.(layout.Striping)
	if !ok {
		return nil, fmt.Errorf("migrate: relayout supports two-tier striping, got %T", lo)
	}
	if st.S == 0 {
		return nil, fmt.Errorf("migrate: file stores nothing on SServers")
	}
	const step = 4 << 10
	newS := st.S / 2
	newS -= newS % step
	if newS < 0 {
		newS = 0
	}
	// Preserve the round size so the file's parallelism width stays put.
	freed := int64(st.N) * (st.S - newS)
	newH := st.H
	if st.M > 0 {
		newH = st.H + freed/int64(st.M)
		newH -= newH % step
		if newH < step {
			newH = step
		}
	}
	out := layout.Striping{M: st.M, N: st.N, H: newH, S: newS}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// Migrator watches SServer space and re-stripes files when needed.
type Migrator struct {
	fs     *pfs.FS
	client *pfs.Client
	policy Policy

	running bool
	stopped bool

	// Stats.
	Migrations int
	BytesMoved int64
	Failures   int
}

// New builds a migrator that moves data through its own client node
// (named "migrator"), as a real migration daemon would.
func New(fs *pfs.FS, policy Policy) (*Migrator, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if policy.CopyChunk == 0 {
		policy.CopyChunk = 4 << 20
	}
	return &Migrator{fs: fs, client: fs.NewClient("migrator"), policy: policy}, nil
}

// Start schedules the periodic watermark checks. Call from within the
// simulation (or before Run); Stop cancels future checks.
func (m *Migrator) Start() {
	m.stopped = false
	m.fs.Engine().Schedule(m.policy.CheckInterval, m.tick)
}

// Stop cancels the check loop after any in-flight migration finishes.
func (m *Migrator) Stop() { m.stopped = true }

func (m *Migrator) tick() {
	if m.stopped {
		return
	}
	if m.running {
		// One migration at a time; re-check next period.
		m.fs.Engine().Schedule(m.policy.CheckInterval, m.tick)
		return
	}
	server := m.fullestSServer()
	if server < 0 {
		m.fs.Engine().Schedule(m.policy.CheckInterval, m.tick)
		return
	}
	name := m.biggestFileOn(server)
	if name == "" {
		m.fs.Engine().Schedule(m.policy.CheckInterval, m.tick)
		return
	}
	m.running = true
	m.Restripe(name, func(moved int64, err error) {
		m.running = false
		if err != nil {
			m.Failures++
		} else {
			m.Migrations++
			m.BytesMoved += moved
		}
		m.fs.Engine().Schedule(m.policy.CheckInterval, m.tick)
	})
}

// fullestSServer returns the SServer above the high watermark with the
// highest utilization, or -1. Once triggered, migration continues while
// any SServer is above the low watermark.
func (m *Migrator) fullestSServer() int {
	best := -1
	bestUtil := 0.0
	threshold := m.policy.HighWatermark
	if m.Migrations > 0 || m.Failures > 0 {
		threshold = m.policy.LowWatermark
	}
	for _, s := range m.fs.Servers() {
		if s.Role() != pfs.SServer {
			continue
		}
		if u := s.Utilization(); u > threshold && u > bestUtil {
			best = s.ID
			bestUtil = u
		}
	}
	return best
}

// biggestFileOn returns the file with the most bytes on the server.
func (m *Migrator) biggestFileOn(server int) string {
	bestName := ""
	var bestBytes int64
	for _, name := range m.fs.FileNames() {
		if b := m.fs.FileBytesOn(name, server); b > bestBytes {
			bestBytes = b
			bestName = name
		}
	}
	return bestName
}

// Restripe copies one file onto the layout HalveSServerShare derives from
// its current one: read the logical extent chunk by chunk, write it into
// a temporary file with the new layout, then swap names. done receives
// the logical bytes moved.
//
// Failure handling: until the final Remove/Rename swap, the source file
// is never touched, so an aborted migration (server crash, exhausted
// retries) deletes the temporary copy and leaves the source intact. With
// a retrying client policy (pfs.FS.ClientPolicy) a migration spanning a
// short outage instead rides it out and completes after recovery.
func (m *Migrator) Restripe(name string, done func(moved int64, err error)) {
	m.RestripeWith(name, HalveSServerShare, done)
}

// RelayoutTo adapts a fixed target layout to RestripeWith's relayout shape,
// for callers — like the monitor's replan advisor — that already know the
// destination striping rather than deriving it from the current one.
func RelayoutTo(target layout.Mapper) func(layout.Mapper) (layout.Mapper, error) {
	return func(layout.Mapper) (layout.Mapper, error) {
		if target == nil {
			return nil, fmt.Errorf("migrate: nil target layout")
		}
		return target, nil
	}
}

// RestripeWith is Restripe with an explicit relayout function, which maps
// the file's current layout to its target, so a one-off migration (e.g.
// acting on monitor advice via RelayoutTo) can choose its own target.
func (m *Migrator) RestripeWith(name string, relayout func(layout.Mapper) (layout.Mapper, error), done func(moved int64, err error)) {
	m.client.Open(name, func(f *pfs.File, err error) {
		if err != nil {
			done(0, err)
			return
		}
		target, err := relayout(f.Meta().Layout)
		if err != nil {
			done(0, err)
			return
		}
		size := f.Size()
		tmp := name + ".migrating"
		m.client.Create(tmp, target, func(dst *pfs.File, err error) {
			if err != nil {
				done(0, err)
				return
			}
			// abort removes the partial copy (best effort — a crashed
			// server holds no committed tmp bytes anyway) and reports the
			// original failure.
			abort := func(cause error) {
				m.client.Remove(tmp, func(error) { done(0, cause) })
			}
			var copyChunk func(off int64)
			copyChunk = func(off int64) {
				if off >= size {
					m.client.Remove(name, func(err error) {
						if err != nil {
							abort(err)
							return
						}
						m.client.Rename(tmp, name, func(err error) {
							done(size, err)
						})
					})
					return
				}
				n := m.policy.CopyChunk
				if off+n > size {
					n = size - off
				}
				f.ReadAt(off, n, func(data []byte, err error) {
					if err != nil {
						abort(err)
						return
					}
					dst.WriteAt(data, off, func(err error) {
						if err != nil {
							abort(err)
							return
						}
						copyChunk(off + n)
					})
				})
			}
			copyChunk(0)
		})
	})
}
