package harl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"harl/internal/layout"
)

// The RST decoders read on-disk input, so any byte string must either be
// rejected or decode to a table that re-encodes and decodes to itself.
// The seed corpora live in testdata/fuzz and run with every go test.

func FuzzReadRST(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		rst, err := ReadRST(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := rst.Write(&buf); err != nil {
			t.Fatalf("accepted table does not encode: %v", err)
		}
		again, err := ReadRST(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding %q: %v", buf.String(), err)
		}
		if len(again.Entries) != len(rst.Entries) {
			t.Fatalf("round trip has %d entries, want %d", len(again.Entries), len(rst.Entries))
		}
		for i, e := range rst.Entries {
			// Write drops the replication column when no region is
			// replicated, so R=1 comes back as the equivalent R=0.
			e.R = effR(e.R)
			g := again.Entries[i]
			g.R = effR(g.R)
			if g != e {
				t.Fatalf("entry %d round-tripped to %+v, want %+v", i, g, e)
			}
		}
	})
}

func FuzzReadTieredRST(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		rst, err := ReadTieredRST(strings.NewReader(in))
		if err != nil {
			return
		}
		for i, e := range rst.Entries {
			if err := (layout.Tiered{Counts: rst.Counts, Stripes: e.Stripes}).Validate(); err != nil {
				t.Fatalf("accepted entry %d is not a valid layout: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := rst.Write(&buf); err != nil {
			t.Fatalf("accepted table does not encode: %v", err)
		}
		again, err := ReadTieredRST(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding %q: %v", buf.String(), err)
		}
		if !reflect.DeepEqual(again, rst) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", again, rst)
		}
	})
}
