package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
)

// verdict judges one metric of a change against its base by the rule of
// the benchmark's bounds:
//
//   - failed_frac, and the other seed-exact metrics when both sides ran
//     the same seeds, regress on any worsening of their mean: those runs
//     reproduce them bit for bit, and unlike the median the mean moves
//     when a single seed worsens;
//   - where either side's spread (interquartile range over median) is
//     wider than the bound, the comparison is unresolved unless every
//     sample of the change reads better than every sample of the base;
//   - a median no worse than the base's by more than the bound is ok;
//   - a worse one regressed only when the two quartile ranges separate,
//     and is unresolved otherwise.
//
// A host metric's samples are one run's iterations, so a slow host phase
// that lasts the whole run moves them all; only samples pooled from runs
// made at different times (see compare) measure that drift.
func verdict(m metric, base, change summary, sameSeeds bool) string {
	lowerBetter := m.Better == "lower"
	worsening := func(from, to float64) float64 {
		if lowerBetter {
			return to - from
		}
		return from - to
	}
	if m.Name == "failed_frac" || seedExact[m.Name] && sameSeeds {
		if worsening(sortedMean(base.Samples), sortedMean(change.Samples)) > 0 {
			return "regressed"
		}
		return "ok"
	}
	worse := worsening(base.Median, change.Median)
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	if base.spread() > m.Bound || change.spread() > m.Bound {
		for _, c := range change.Samples {
			for _, b := range base.Samples {
				if !better(c, b) {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worse <= m.Bound*base.Median {
		return "ok"
	}
	separate := change.Q1 > base.Q3
	if !lowerBetter {
		separate = change.Q3 < base.Q1
	}
	if !separate {
		return "unresolved"
	}
	return "regressed"
}

// sortedMean adds the samples in sorted order, so that the same samples
// in another order give the same bits.
func sortedMean(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// side is one side of a comparison: every run given for it, pooled by
// workload.
type side map[string]*pooled

type pooled struct {
	seeds   []int64
	samples map[string][]float64
	units   map[string]string
}

// loadSide reads a comma-separated list of -json files and pools each
// workload's samples across them.
func loadSide(paths string) (side, error) {
	out := side{}
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var results []*childResult
		if err := json.Unmarshal(data, &results); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range results {
			p := out[r.Workload]
			if p == nil {
				p = &pooled{samples: map[string][]float64{}, units: map[string]string{}}
				out[r.Workload] = p
			}
			p.seeds = append(p.seeds, r.Seed)
			for name, s := range r.Metrics {
				p.samples[name] = append(p.samples[name], s.Samples...)
				p.units[name] = s.Unit
			}
		}
	}
	for _, p := range out {
		slices.Sort(p.seeds)
	}
	return out, nil
}

// compare prints, for every workload and metric both sides hold, the two
// medians and quartiles, and a verdict for the metrics with a bound.
// Each side is one -json file or several joined by commas; giving runs
// of one commit made at different times lets the quartiles take in the
// host's drift between runs.
func compare(w io.Writer, basePaths, changePaths string) error {
	base, err := loadSide(basePaths)
	if err != nil {
		return err
	}
	change, err := loadSide(changePaths)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-28s %12s %12s %12s   %12s %12s %12s  %s\n",
		"workload", "metric", "base q1", "median", "q3", "change q1", "median", "q3", "verdict")
	for _, wl := range workloads {
		b, c := base[wl.name], change[wl.name]
		if b == nil || c == nil {
			continue
		}
		sameSeeds := slices.Equal(b.seeds, c.seeds)
		for _, set := range [][]metric{endToEnd, perLayer} {
			for _, m := range set {
				bx, ok1 := b.samples[m.Name]
				cx, ok2 := c.samples[m.Name]
				if !ok1 || !ok2 {
					continue
				}
				bs, cs := summarize(b.units[m.Name], bx...), summarize(c.units[m.Name], cx...)
				v := "-"
				if m.Bound > 0 || seedExact[m.Name] {
					v = verdict(m, bs, cs, sameSeeds)
				}
				fmt.Fprintf(w, "%-15s %-28s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %s\n",
					wl.name, m.Name, bs.Q1, bs.Median, bs.Q3, cs.Q1, cs.Median, cs.Q3, v)
			}
		}
	}
	return nil
}
