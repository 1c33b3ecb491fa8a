package harl

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
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
	for i, e := range t.Entries {
		if e.End <= e.Offset {
			return fmt.Errorf("harl: RST entry %d has empty range [%d,%d)", i, e.Offset, e.End)
		}
		if e.H < 0 || e.S < 0 || e.H+e.S == 0 {
			return fmt.Errorf("harl: RST entry %d has unusable stripes %v", i, e.Pair())
		}
		if e.R < 0 {
			return fmt.Errorf("harl: RST entry %d has negative replication factor %d", i, e.R)
		}
		if i == 0 {
			if e.Offset != 0 {
				return fmt.Errorf("harl: RST must start at offset 0, got %d", e.Offset)
			}
		} else if e.Offset != t.Entries[i-1].End {
			return fmt.Errorf("harl: RST entry %d not contiguous: starts %d, previous ends %d",
				i, e.Offset, t.Entries[i-1].End)
		}
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

// ReadRST decodes a table written by Write and validates it.
func ReadRST(r io.Reader) (*RST, error) {
	sc := bufio.NewScanner(r)
	t := &RST{}
	lineNo := 0
	wantFields := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if line != rstHeader && line != rstHeaderV2 {
				continue
			}
			if wantFields != 0 {
				return nil, fmt.Errorf("harl: RST line %d: second header %q", lineNo, line)
			}
			wantFields = 4
			if line == rstHeaderV2 {
				wantFields = 5
			}
			continue
		}
		if wantFields == 0 {
			return nil, fmt.Errorf("harl: RST line %d: missing %q or %q header", lineNo, rstHeader, rstHeaderV2)
		}
		fields := strings.Fields(line)
		if len(fields) != wantFields {
			return nil, fmt.Errorf("harl: RST line %d: want %d fields, got %d", lineNo, wantFields, len(fields))
		}
		var e RSTEntry
		var err error
		dsts := []*int64{&e.Offset, &e.End, &e.H, &e.S, &e.R}[:wantFields]
		for i, dst := range dsts {
			if *dst, err = strconv.ParseInt(fields[i], 10, 64); err != nil {
				return nil, fmt.Errorf("harl: RST line %d field %d: %w", lineNo, i, err)
			}
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
