package harl

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"harl/internal/stats"
	"harl/internal/trace"
)

// PlanFingerprint freezes the workload assumptions a plan was optimized
// under, one record per (merged) RST entry. The online monitor compares
// live per-region statistics against these to decide whether the layout
// has gone stale: the RST itself only says *what* was chosen, the
// fingerprint says *why* — the request-size distribution, dispersion and
// read/write mix the grid search scored.
type PlanFingerprint struct {
	// Threshold is the CV threshold region division finally used.
	Threshold float64
	// Regions align one-to-one with the plan's RST entries.
	Regions []RegionFingerprint
}

// RegionFingerprint is one region's plan-time workload summary.
type RegionFingerprint struct {
	Offset int64 // region bounds, matching the RST entry
	End    int64
	H, S   int64 // the pair chosen for these assumptions

	Requests int     // traced requests in the region
	MeanSize float64 // mean request size (bytes)
	CV       float64 // population CV of request sizes
	WriteMix float64 // fraction of region bytes written
	// SizeDeciles are the nine interior deciles (q10..q90) of the
	// request-size distribution — the shape the drift detector compares
	// live windows against.
	SizeDeciles [9]float64
}

// Pair returns the region's planned stripe pair.
func (r RegionFingerprint) Pair() StripePair { return StripePair{H: r.H, S: r.S} }

// fingerprintRegion summarizes one merged region's request group.
func fingerprintRegion(e RSTEntry, records []trace.Record) RegionFingerprint {
	f := RegionFingerprint{
		Offset:   e.Offset,
		End:      e.End,
		H:        e.H,
		S:        e.S,
		Requests: len(records),
		WriteMix: ReadWriteMix(records),
	}
	if len(records) == 0 {
		return f
	}
	sizes := make([]float64, len(records))
	var w stats.Welford
	for i, r := range records {
		sizes[i] = float64(r.Size)
		w.Add(float64(r.Size))
	}
	f.MeanSize = w.Mean()
	f.CV = w.CV()
	for i := range f.SizeDeciles {
		f.SizeDeciles[i] = stats.Percentile(sizes, float64(i+1)*10)
	}
	return f
}

// Fingerprint builds the plan's fingerprint from the per-planned-region
// request groups (as produced by region.AssignRequests, aligned with the
// pre-merge planned regions). Groups of planned regions that merged into
// one RST entry are aggregated, so the result aligns with the merged RST.
func (p *Plan) fingerprint(groups [][]trace.Record) *PlanFingerprint {
	fp := &PlanFingerprint{Threshold: p.Threshold}
	merged := make([][]trace.Record, len(p.RST.Entries))
	for i, r := range p.Regions {
		ei := p.RST.Lookup(r.Offset)
		merged[ei] = append(merged[ei], groups[i]...)
	}
	for i, e := range p.RST.Entries {
		fp.Regions = append(fp.Regions, fingerprintRegion(e, merged[i]))
	}
	return fp
}

// fpHeader versions the on-disk fingerprint format.
const fpHeader = "#harl-fp v1"

// fpFloat renders a float exactly and compactly (round-trips via ParseFloat).
func fpFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Write encodes the fingerprint as text: a threshold line, then one
// "offset end h s requests mean cv mix d10..d90" line per region —
// stored alongside the RST so a later monitoring run can reload the
// plan-time assumptions. An invalid fingerprint is rejected before any
// byte is written.
func (f *PlanFingerprint) Write(w io.Writer) error {
	if err := f.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, fpHeader); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "threshold %s\n", fpFloat(f.Threshold)); err != nil {
		return err
	}
	for _, r := range f.Regions {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d %d %s %s %s",
			r.Offset, r.End, r.H, r.S, r.Requests,
			fpFloat(r.MeanSize), fpFloat(r.CV), fpFloat(r.WriteMix)); err != nil {
			return err
		}
		for _, d := range r.SizeDeciles {
			if _, err := fmt.Fprintf(bw, " %s", fpFloat(d)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFingerprint decodes a fingerprint written by Write.
func ReadFingerprint(r io.Reader) (*PlanFingerprint, error) {
	sc := bufio.NewScanner(r)
	f := &PlanFingerprint{}
	lineNo := 0
	sawHeader := false
	sawThreshold := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line == fpHeader {
				if sawHeader {
					return nil, fmt.Errorf("harl: fingerprint line %d: second %q header", lineNo, fpHeader)
				}
				sawHeader = true
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("harl: fingerprint line %d: missing %q header", lineNo, fpHeader)
		}
		fields := strings.Fields(line)
		if fields[0] == "threshold" {
			if sawThreshold {
				return nil, fmt.Errorf("harl: fingerprint line %d: second threshold line", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("harl: fingerprint line %d: malformed threshold", lineNo)
			}
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return nil, fmt.Errorf("harl: fingerprint line %d: %w", lineNo, err)
			}
			f.Threshold = v
			sawThreshold = true
			continue
		}
		if len(fields) != 17 {
			return nil, fmt.Errorf("harl: fingerprint line %d: want 17 fields, got %d", lineNo, len(fields))
		}
		var reg RegionFingerprint
		var err error
		for i, dst := range []*int64{&reg.Offset, &reg.End, &reg.H, &reg.S} {
			if *dst, err = strconv.ParseInt(fields[i], 10, 64); err != nil {
				return nil, fmt.Errorf("harl: fingerprint line %d field %d: %w", lineNo, i, err)
			}
		}
		req, err := strconv.Atoi(fields[4])
		if err != nil {
			return nil, fmt.Errorf("harl: fingerprint line %d field 4: %w", lineNo, err)
		}
		reg.Requests = req
		for i, dst := range []*float64{&reg.MeanSize, &reg.CV, &reg.WriteMix} {
			if *dst, err = strconv.ParseFloat(fields[5+i], 64); err != nil {
				return nil, fmt.Errorf("harl: fingerprint line %d field %d: %w", lineNo, 5+i, err)
			}
		}
		for i := range reg.SizeDeciles {
			if reg.SizeDeciles[i], err = strconv.ParseFloat(fields[8+i], 64); err != nil {
				return nil, fmt.Errorf("harl: fingerprint line %d field %d: %w", lineNo, 8+i, err)
			}
		}
		f.Regions = append(f.Regions, reg)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawThreshold {
		return nil, fmt.Errorf("harl: fingerprint missing threshold line")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}

// Validate checks the fingerprint's regions are contiguous and sane,
// mirroring RST.Validate, and that every statistic is a finite number in
// range.
func (f *PlanFingerprint) Validate() error {
	if !finiteNonNegative(f.Threshold) {
		return fmt.Errorf("harl: fingerprint threshold %v is not a finite non-negative number", f.Threshold)
	}
	for i, r := range f.Regions {
		if r.End <= r.Offset {
			return fmt.Errorf("harl: fingerprint region %d has empty range [%d,%d)", i, r.Offset, r.End)
		}
		if r.H < 0 || r.S < 0 || r.H+r.S == 0 {
			return fmt.Errorf("harl: fingerprint region %d has unusable stripes %v", i, r.Pair())
		}
		if i == 0 {
			if r.Offset != 0 {
				return fmt.Errorf("harl: fingerprint must start at offset 0, got %d", r.Offset)
			}
		} else if r.Offset != f.Regions[i-1].End {
			return fmt.Errorf("harl: fingerprint region %d not contiguous: starts %d, previous ends %d",
				i, r.Offset, f.Regions[i-1].End)
		}
		if r.Requests < 0 || !finiteNonNegative(r.MeanSize, r.CV, r.WriteMix) || r.WriteMix > 1 ||
			!finiteNonNegative(r.SizeDeciles[:]...) {
			return fmt.Errorf("harl: fingerprint region %d has invalid statistics", i)
		}
	}
	return nil
}

// finiteNonNegative reports whether every value is a finite number >= 0;
// NaN fails it.
func finiteNonNegative(vs ...float64) bool {
	for _, v := range vs {
		if !(v >= 0) || math.IsInf(v, 1) {
			return false
		}
	}
	return true
}
