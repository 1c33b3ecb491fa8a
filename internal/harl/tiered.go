package harl

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"harl/internal/layout"
)

// TieredRSTEntry is one region of a multi-tier Region Stripe Table.
type TieredRSTEntry struct {
	Offset  int64
	End     int64
	Stripes []int64 // per tier
}

// TieredRST generalizes the RST to any tier count.
type TieredRST struct {
	Counts  []int // servers per tier (fixed for the whole table)
	Entries []TieredRSTEntry
}

// Validate checks contiguity and stripe sanity.
func (t *TieredRST) Validate() error {
	if len(t.Counts) == 0 {
		return fmt.Errorf("harl: tiered RST has no tiers")
	}
	for i, e := range t.Entries {
		if e.End <= e.Offset {
			return fmt.Errorf("harl: tiered RST entry %d has empty range", i)
		}
		if len(e.Stripes) != len(t.Counts) {
			return fmt.Errorf("harl: tiered RST entry %d has %d stripes for %d tiers", i, len(e.Stripes), len(t.Counts))
		}
		if err := (layout.Tiered{Counts: t.Counts, Stripes: e.Stripes}).Validate(); err != nil {
			return fmt.Errorf("harl: tiered RST entry %d: %w", i, err)
		}
		if i == 0 {
			if e.Offset != 0 {
				return fmt.Errorf("harl: tiered RST must start at 0")
			}
		} else if e.Offset != t.Entries[i-1].End {
			return fmt.Errorf("harl: tiered RST entry %d not contiguous", i)
		}
	}
	return nil
}

// TieredPlan is the multi-tier analysis output.
type TieredPlan struct {
	RST       TieredRST
	ModelCost float64
	Threshold float64
}

// On-disk format for the multi-tier Region Stripe Table, mirroring the
// two-tier RST codec:
//
//	#harl-tiered-rst v1
//	#counts 6 1 1
//	<offset> <end> <stripe0> <stripe1> <stripe2>
//	...

// tieredHeader versions the format.
const tieredHeader = "#harl-tiered-rst v1"

// Write encodes the table as text.
func (t *TieredRST) Write(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, tieredHeader); err != nil {
		return err
	}
	fmt.Fprint(bw, "#counts")
	for _, c := range t.Counts {
		fmt.Fprintf(bw, " %d", c)
	}
	fmt.Fprintln(bw)
	for _, e := range t.Entries {
		fmt.Fprintf(bw, "%d %d", e.Offset, e.End)
		for _, s := range e.Stripes {
			fmt.Fprintf(bw, " %d", s)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// ReadTieredRST decodes a table written by Write and validates it.
func ReadTieredRST(r io.Reader) (*TieredRST, error) {
	sc := bufio.NewScanner(r)
	t := &TieredRST{}
	lineNo := 0
	sawHeader, sawCounts := false, false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			switch fields := strings.Fields(line); {
			case line == tieredHeader:
				sawHeader = true
			case !strings.HasPrefix(line, "#counts"):
			case fields[0] != "#counts":
				return nil, fmt.Errorf("harl: tiered RST line %d: malformed #counts line %q", lineNo, line)
			case sawCounts:
				return nil, fmt.Errorf("harl: tiered RST line %d: second #counts line", lineNo)
			default:
				sawCounts = true
				for _, fld := range fields[1:] {
					c, err := strconv.Atoi(fld)
					if err != nil {
						return nil, fmt.Errorf("harl: tiered RST line %d: counts: %w", lineNo, err)
					}
					t.Counts = append(t.Counts, c)
				}
			}
			continue
		}
		if !sawHeader {
			return nil, fmt.Errorf("harl: tiered RST line %d: missing %q header", lineNo, tieredHeader)
		}
		if len(t.Counts) == 0 {
			return nil, fmt.Errorf("harl: tiered RST line %d: data before #counts", lineNo)
		}
		fields := strings.Fields(line)
		if len(fields) != 2+len(t.Counts) {
			return nil, fmt.Errorf("harl: tiered RST line %d: want %d fields, got %d",
				lineNo, 2+len(t.Counts), len(fields))
		}
		var e TieredRSTEntry
		var err error
		if e.Offset, err = strconv.ParseInt(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("harl: tiered RST line %d: offset: %w", lineNo, err)
		}
		if e.End, err = strconv.ParseInt(fields[1], 10, 64); err != nil {
			return nil, fmt.Errorf("harl: tiered RST line %d: end: %w", lineNo, err)
		}
		for _, fld := range fields[2:] {
			s, err := strconv.ParseInt(fld, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("harl: tiered RST line %d: stripe: %w", lineNo, err)
			}
			e.Stripes = append(e.Stripes, s)
		}
		t.Entries = append(t.Entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
