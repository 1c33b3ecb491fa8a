package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"harl/internal/sim"
)

// Prometheus text-format export of the metrics registry. Like every
// exporter in this package the output is byte-deterministic: families
// sort by name, series within a family sort by their rendered label set,
// and floats render via FormatFloat('g', -1) — the shortest exact
// representation. Counters export as "counter", gauges as "gauge", and
// histograms as cumulative "_bucket{le=...}" series plus "_count" (the
// backing stats.Histogram tracks no sum, so no "_sum" series is
// emitted). A leading comment stamps the virtual snapshot time, so two
// same-seed runs export identical bytes.

// WriteProm dumps the registry in the Prometheus text exposition format
// at the given virtual time.
func (r *Registry) WriteProm(w io.Writer, at sim.Time) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# metrics disabled")
		return err
	}
	bw := &errWriter{w: w}
	bw.printf("# virtual time %s\n", at)

	// Group series into families; within a family every series shares the
	// instrument kind (lookup panics on clashes), so the family's TYPE
	// line is well defined.
	families := make(map[string][]*metric, len(r.byKey))
	for _, m := range r.byKey {
		families[m.name] = append(families[m.name], m)
	}
	names := make([]string, 0, len(families))
	for name := range families {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		series := families[name]
		sort.Slice(series, func(i, j int) bool { return series[i].key < series[j].key })
		bw.printf("# TYPE %s %s\n", name, promType(series[0].kind))
		for _, m := range series {
			switch m.kind {
			case kindCounter:
				bw.printf("%s%s %d\n", name, promLabels(m.labels, "", 0), m.c.Value())
			case kindGauge:
				bw.printf("%s%s %s\n", name, promLabels(m.labels, "", 0), promFloat(m.g.Value()))
			case kindHistogram:
				h := m.h.Snapshot()
				width := (h.Hi - h.Lo) / float64(len(h.Counts))
				cum := int64(0)
				for i, c := range h.Counts {
					cum += c
					bw.printf("%s_bucket%s %d\n", name,
						promLabels(m.labels, promFloat(h.Lo+float64(i+1)*width), 1), cum)
				}
				bw.printf("%s_bucket%s %d\n", name, promLabels(m.labels, "+Inf", 1), cum)
				bw.printf("%s_count%s %d\n", name, promLabels(m.labels, "", 0), h.Total())
			}
		}
	}
	return bw.err
}

func promType(k metricKind) string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// promFloat renders a float in the shortest exact form.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// promLabels renders a label set as {k="v",...}; le ("" to omit, mode 1
// to include) appends the histogram bucket bound last, matching the
// key-sorted base labels. Returns "" for an empty set.
func promLabels(labels []Tag, le string, mode int) string {
	if len(labels) == 0 && mode == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(promEscape(l.Value()))
		b.WriteByte('"')
	}
	if mode == 1 {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`le="`)
		b.WriteString(le)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// promEscape escapes a label value per the text exposition format.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}
