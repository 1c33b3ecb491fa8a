package harl

import (
	"bufio"
	"fmt"
	"io"

	"harl/internal/layout"
	"harl/internal/textfmt"
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
	if err := contiguous("tiered RST entry", len(t.Entries), func(i int) (int64, int64) {
		return t.Entries[i].Offset, t.Entries[i].End
	}); err != nil {
		return err
	}
	for i, e := range t.Entries {
		if len(e.Stripes) != len(t.Counts) {
			return fmt.Errorf("harl: tiered RST entry %d has %d stripes for %d tiers", i, len(e.Stripes), len(t.Counts))
		}
		if err := (layout.Tiered{Counts: t.Counts, Stripes: e.Stripes}).Validate(); err != nil {
			return fmt.Errorf("harl: tiered RST entry %d: %w", i, err)
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

// tieredFormat is the tiered RST's on-disk text format; its keyed
// #counts line sets the row width.
var tieredFormat = textfmt.Format{Name: "harl: tiered RST", Headers: []string{tieredHeader}, Key: "#counts"}

// IsTieredRST reports whether data opens with the tiered RST header
// rather than the two-tier one.
func IsTieredRST(data []byte) bool { return tieredFormat.Opens(data) }

// ReadTieredRST decodes a table written by Write and validates it.
func ReadTieredRST(r io.Reader) (*TieredRST, error) {
	t := &TieredRST{}
	head := func(_ int, counts []string) error {
		cs, err := textfmt.Ints(counts)
		if err != nil {
			return fmt.Errorf("counts: %w", err)
		}
		for _, c := range cs {
			t.Counts = append(t.Counts, int(c))
		}
		return nil
	}
	err := tieredFormat.Read(r, head, func(fields []string) error {
		if len(fields) != 2+len(t.Counts) {
			return fmt.Errorf("want %d fields, got %d", 2+len(t.Counts), len(fields))
		}
		v, err := textfmt.Ints(fields)
		if err != nil {
			return err
		}
		t.Entries = append(t.Entries, TieredRSTEntry{Offset: v[0], End: v[1], Stripes: v[2:]})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
