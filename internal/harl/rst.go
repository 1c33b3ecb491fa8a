package harl

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"harl/internal/textfmt"
)

// RSTEntry is one row of the Region Stripe Table (paper Fig. 6): a file
// region and the optimal stripe sizes chosen for it.
type RSTEntry struct {
	Offset int64 // first byte of the region
	End    int64 // exclusive end
	H      int64 // HServer stripe size
	S      int64 // SServer stripe size
	R      int64 // replicas per stripe slot; 0 and 1 both mean unreplicated
}

// effR normalizes the replication factor: 0 and 1 are the same protocol.
func effR(r int64) int64 {
	if r <= 1 {
		return 1
	}
	return r
}

// Pair returns the entry's stripe pair.
func (e RSTEntry) Pair() StripePair { return StripePair{H: e.H, S: e.S} }

// RST is the Region Stripe Table: the metadata HARL's placing phase
// consults to stripe each region. Entries are contiguous, sorted by
// offset, and cover [0, End of last entry).
type RST struct {
	Entries []RSTEntry
}

// Validate checks contiguity, ordering and stripe sanity.
func (t *RST) Validate() error {
	if err := contiguous("RST entry", len(t.Entries), func(i int) (int64, int64) {
		return t.Entries[i].Offset, t.Entries[i].End
	}); err != nil {
		return err
	}
	for i, e := range t.Entries {
		if e.H < 0 || e.S < 0 || e.H+e.S == 0 {
			return fmt.Errorf("harl: RST entry %d has unusable stripes %v", i, e.Pair())
		}
		if e.R < 0 {
			return fmt.Errorf("harl: RST entry %d has negative replication factor %d", i, e.R)
		}
	}
	return nil
}

// contiguous checks that n regions, region i spanning span(i), are each
// non-empty and tile [0, end of the last) in order: the layout rule the
// RST, the tiered RST and the plan fingerprint share. what names one
// region in errors.
func contiguous(what string, n int, span func(i int) (off, end int64)) error {
	prev := int64(0)
	for i := 0; i < n; i++ {
		off, end := span(i)
		if end <= off {
			return fmt.Errorf("harl: %s %d has empty range [%d,%d)", what, i, off, end)
		}
		if off != prev {
			return fmt.Errorf("harl: %s %d not contiguous: starts %d, previous ends %d", what, i, off, prev)
		}
		prev = end
	}
	return nil
}

// Extent returns the end of the last region (the covered address space).
func (t *RST) Extent() int64 {
	if len(t.Entries) == 0 {
		return 0
	}
	return t.Entries[len(t.Entries)-1].End
}

// Lookup returns the index of the entry containing offset. Offsets beyond
// the table's extent map to the last entry, mirroring how the paper's MDS
// serves requests past the traced range with the final region's layout.
func (t *RST) Lookup(offset int64) int {
	if len(t.Entries) == 0 {
		panic("harl: lookup in empty RST")
	}
	if offset < 0 {
		panic(fmt.Sprintf("harl: negative offset %d", offset))
	}
	i := sort.Search(len(t.Entries), func(i int) bool {
		return t.Entries[i].End > offset
	})
	if i == len(t.Entries) {
		i = len(t.Entries) - 1
	}
	return i
}

// Piece is one region-local fragment of a logical request.
type Piece struct {
	Region int   // the region holding the fragment
	Local  int64 // offset within the region's physical file
	Length int64
}

// SplitRegions cuts [off, off+size) at region boundaries, where region i
// covers [ends[i-1], ends[i]) and region 0 starts at 0, as in a valid
// RST or TieredRST. The last region is open-ended: offsets past the
// table's extent fall into it, as in Lookup, and its physical file
// simply grows — the same behaviour the paper's MDS exhibits for
// requests past the traced range. A negative range panics.
func SplitRegions(ends []int64, off, size int64) []Piece {
	if off < 0 || size < 0 {
		panic(fmt.Sprintf("harl: invalid range %d+%d", off, size))
	}
	var pieces []Piece
	last := len(ends) - 1
	for pos, end := off, off+size; pos < end; {
		ri := sort.Search(last, func(i int) bool { return ends[i] > pos })
		var start int64
		if ri > 0 {
			start = ends[ri-1]
		}
		pieceEnd := end
		if ri < last && ends[ri] < end {
			pieceEnd = ends[ri]
		}
		pieces = append(pieces, Piece{Region: ri, Local: pos - start, Length: pieceEnd - pos})
		pos = pieceEnd
	}
	return pieces
}

// Merge combines adjacent regions with identical stripe pairs (Section
// III-E: "if adjacent regions have the same optimal stripe sizes, the two
// regions are combined"), reducing metadata overhead. It returns the
// number of entries removed.
func (t *RST) Merge() int {
	if len(t.Entries) < 2 {
		return 0
	}
	out := t.Entries[:1]
	removed := 0
	for _, e := range t.Entries[1:] {
		last := &out[len(out)-1]
		if e.H == last.H && e.S == last.S && effR(e.R) == effR(last.R) {
			last.End = e.End
			removed++
			continue
		}
		out = append(out, e)
	}
	t.Entries = out
	return removed
}

// rstHeader versions the on-disk format: v1 is "offset end h s", v2
// appends the replication factor. Write emits v1 whenever no region is
// replicated, so pre-replication tooling keeps reading its own tables.
const (
	rstHeader   = "#harl-rst v1"
	rstHeaderV2 = "#harl-rst v2"
)

// Write encodes the table as text: "offset end h s" per line (v1), or
// "offset end h s r" (v2) when any region carries a replication factor
// above 1. The format is the on-disk RST the paper stores alongside the
// application. An invalid table is rejected before any byte is written,
// so Write never produces bytes ReadRST refuses.
func (t *RST) Write(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	replicated := false
	for _, e := range t.Entries {
		if e.R > 1 {
			replicated = true
			break
		}
	}
	bw := bufio.NewWriter(w)
	header := rstHeader
	if replicated {
		header = rstHeaderV2
	}
	if _, err := fmt.Fprintln(bw, header); err != nil {
		return err
	}
	for _, e := range t.Entries {
		var err error
		if replicated {
			_, err = fmt.Fprintf(bw, "%d %d %d %d %d\n", e.Offset, e.End, e.H, e.S, e.R)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d %d %d\n", e.Offset, e.End, e.H, e.S)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// rstFormat is the RST's on-disk text format; the header's version sets
// the row width.
var rstFormat = textfmt.Format{Name: "harl: RST", Headers: []string{rstHeader, rstHeaderV2}}

// ReadRST decodes a table written by Write and validates it.
func ReadRST(r io.Reader) (*RST, error) {
	t := &RST{}
	width := 0
	head := func(version int, _ []string) error {
		width = 4 + version // v2 rows append R
		return nil
	}
	err := rstFormat.Read(r, head, func(fields []string) error {
		if len(fields) != width {
			return fmt.Errorf("want %d fields, got %d", width, len(fields))
		}
		v, err := textfmt.Ints(fields)
		if err != nil {
			return err
		}
		e := RSTEntry{Offset: v[0], End: v[1], H: v[2], S: v[3]}
		if width == 5 {
			e.R = v[4]
		}
		t.Entries = append(t.Entries, e)
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

// R2FEntry maps one RST region to the physical PFS file storing it —
// the region-to-file mapping table of Section III-G.
type R2FEntry struct {
	Region int    // index into the RST
	File   string // physical file name in the PFS
}

// R2F is the region-to-file table.
type R2F struct {
	Entries []R2FEntry
}

// BuildR2F derives the canonical mapping for a logical file name: region
// i of "name" is stored in "name.r<i>".
func BuildR2F(logical string, rst *RST) *R2F {
	t := &R2F{}
	for i := range rst.Entries {
		t.Entries = append(t.Entries, R2FEntry{Region: i, File: fmt.Sprintf("%s.r%d", logical, i)})
	}
	return t
}

// File returns the physical file for a region index.
func (t *R2F) File(region int) string {
	if region < 0 || region >= len(t.Entries) {
		panic(fmt.Sprintf("harl: R2F region %d out of range [0,%d)", region, len(t.Entries)))
	}
	return t.Entries[region].File
}
