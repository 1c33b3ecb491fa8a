package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"harl/internal/sim"
	"harl/internal/stats"
)

// The metrics registry generalizes the simulator's scattered counters
// (Server.DiskBusy, FaultStats, Engine.Processed) into named, labelled
// instruments that can be snapshotted at any virtual time. Like the
// tracer, a nil *Registry is a valid disabled registry: instrument
// lookups return nil and every instrument method is nil-receiver safe,
// so hot paths update counters unconditionally without branching on
// whether metrics are on.
//
// The registry is single-goroutine, like everything on the engine loop.

// Counter is a monotonically increasing integer instrument.
type Counter struct{ v int64 }

// Add increases the counter; nil-safe.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc adds one; nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Set overwrites the value — for counters mirrored from an existing
// accumulator at snapshot time; nil-safe.
func (c *Counter) Set(v int64) {
	if c != nil {
		c.v = v
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a float instrument that can move both ways.
type Gauge struct{ v float64 }

// Set overwrites the gauge; nil-safe.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.v = v
	}
}

// Add shifts the gauge; nil-safe.
func (g *Gauge) Add(v float64) {
	if g != nil {
		g.v += v
	}
}

// Value returns the current value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a binned distribution instrument wrapping
// stats.Histogram.
type Histogram struct{ h *stats.Histogram }

// Observe records one sample; nil-safe.
func (h *Histogram) Observe(x float64) {
	if h != nil {
		h.h.Add(x)
	}
}

// Snapshot exposes the underlying histogram (nil for a nil instrument).
func (h *Histogram) Snapshot() *stats.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// Merge folds another histogram instrument's buckets into h. Both must
// share bucket geometry (stats.Histogram.Merge panics otherwise). Either
// side may be nil/disabled: merging from nil is a no-op, merging into
// nil drops the samples — exactly the disabled-instrument contract.
func (h *Histogram) Merge(other *Histogram) {
	if h == nil || other == nil {
		return
	}
	h.h.Merge(other.h)
}

// Bins returns the bucket count (0 for a nil instrument).
func (h *Histogram) Bins() int {
	if h == nil {
		return 0
	}
	return h.h.Bins()
}

// BinBounds returns bucket i's half-open range [lo, hi); (0, 0) for a
// nil instrument.
func (h *Histogram) BinBounds(i int) (lo, hi float64) {
	if h == nil {
		return 0, 0
	}
	return h.h.BinBounds(i)
}

// metricKind tags a registry entry's instrument type.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metric is one registered instrument: a name plus its rendered label
// set, exactly one of the three instrument pointers non-nil. name and
// labels (key-sorted) are kept alongside the rendered key so exporters
// that need structure back — the Prometheus text format groups series
// into families and re-renders labels per sample line — never parse the
// key.
type metric struct {
	key    string
	name   string
	labels []Tag
	kind   metricKind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named instruments. nil is a disabled registry.
type Registry struct {
	byKey map[string]*metric
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// sortLabels returns a key-sorted copy of a label set (nil when empty).
func sortLabels(labels []Tag) []Tag {
	if len(labels) == 0 {
		return nil
	}
	sorted := append([]Tag(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	return sorted
}

// metricKey renders name{k="v",...} with labels sorted by key, so the
// same instrument is found regardless of label order at the call site.
func metricKey(name string, labels []Tag) string {
	if len(labels) == 0 {
		return name
	}
	sorted := sortLabels(labels)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value())
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the entry for (name, labels), panicking on a
// kind clash — reusing one key for two instrument types is always a bug.
func (r *Registry) lookup(name string, kind metricKind, labels []Tag) *metric {
	key := metricKey(name, labels)
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %q registered with conflicting kinds", key))
		}
		return m
	}
	m := &metric{key: key, name: name, labels: sortLabels(labels), kind: kind}
	r.byKey[key] = m
	return m
}

// Counter returns the counter named name with the given labels, creating
// it on first use. A nil registry returns a nil (disabled) counter.
func (r *Registry) Counter(name string, labels ...Tag) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, kindCounter, labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge named name with the given labels.
func (r *Registry) Gauge(name string, labels ...Tag) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, kindGauge, labels)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram named name with the given labels,
// created with bins equal-width bins over [lo, hi) on first use.
func (r *Registry) Histogram(name string, lo, hi float64, bins int, labels ...Tag) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, kindHistogram, labels)
	if m.h == nil {
		m.h = &Histogram{h: stats.NewHistogram(lo, hi, bins)}
	}
	return m.h
}

// CounterValue reads a counter by name/labels without creating it — for
// reports and tests. Returns 0 when absent.
func (r *Registry) CounterValue(name string, labels ...Tag) int64 {
	if r == nil {
		return 0
	}
	if m, ok := r.byKey[metricKey(name, labels)]; ok && m.kind == kindCounter {
		return m.c.Value()
	}
	return 0
}

// GaugeValue reads a gauge by name/labels without creating it.
func (r *Registry) GaugeValue(name string, labels ...Tag) float64 {
	if r == nil {
		return 0
	}
	if m, ok := r.byKey[metricKey(name, labels)]; ok && m.kind == kindGauge {
		return m.g.Value()
	}
	return 0
}

// WriteText dumps every instrument in key-sorted order — a deterministic
// plain-text snapshot at the given virtual time. Histograms print their
// sample count, NaN count, and non-empty bins.
func (r *Registry) WriteText(w io.Writer, at sim.Time) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# metrics disabled")
		return err
	}
	if _, err := fmt.Fprintf(w, "# virtual time %s\n", at); err != nil {
		return err
	}
	keys := make([]string, 0, len(r.byKey))
	for k := range r.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.byKey[k]
		var err error
		switch m.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", k, m.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%s %s\n", k, strconv.FormatFloat(m.g.Value(), 'g', -1, 64))
		case kindHistogram:
			h := m.h.Snapshot()
			_, err = fmt.Fprintf(w, "%s histogram samples=%d nan=%d\n", k, h.Total(), h.NaNs)
			if err != nil {
				return err
			}
			width := (h.Hi - h.Lo) / float64(len(h.Counts))
			for i, c := range h.Counts {
				if c == 0 {
					continue
				}
				if _, err = fmt.Fprintf(w, "  [%g,%g) %d\n",
					h.Lo+float64(i)*width, h.Lo+float64(i+1)*width, c); err != nil {
					return err
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}
