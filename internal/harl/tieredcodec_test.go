package harl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func goodTieredRST() *TieredRST {
	return &TieredRST{
		Counts: []int{6, 1, 1},
		Entries: []TieredRSTEntry{
			{Offset: 0, End: 128 << 20, Stripes: []int64{16 << 10, 32 << 10, 64 << 10}},
			{Offset: 128 << 20, End: 256 << 20, Stripes: []int64{0, 64 << 10, 128 << 10}},
		},
	}
}

func TestTieredRSTCodecRoundTrip(t *testing.T) {
	rst := goodTieredRST()
	var buf bytes.Buffer
	if err := rst.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTieredRST(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rst) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rst)
	}
}

func TestTieredRSTWriteRejectsInvalid(t *testing.T) {
	bad := &TieredRST{Counts: []int{1}, Entries: []TieredRSTEntry{{Offset: 5, End: 10, Stripes: []int64{1}}}}
	var buf bytes.Buffer
	if err := bad.Write(&buf); err == nil {
		t.Fatal("invalid table written")
	}
}

func TestReadTieredRSTErrors(t *testing.T) {
	cases := []string{
		"0 10 1\n",                                                       // no header
		"#harl-tiered-rst v1\n0 10 1\n",                                  // no counts
		"#harl-tiered-rst v1\n#counts 2\n0 10 1 2\n",                     // field count mismatch
		"#harl-tiered-rst v1\n#counts x\n",                               // bad count
		"#harl-tiered-rst v1\n#counts 1\nz 10 1\n",                       // bad offset
		"#harl-tiered-rst v1\n#counts 1\n0 z 1\n",                        // bad end
		"#harl-tiered-rst v1\n#counts 1\n0 10 z\n",                       // bad stripe
		"#harl-tiered-rst v1\n#counts 1\n5 10 1\n",                       // not at 0
		"#harl-tiered-rst v1\n#counts 1\n0 10 0\n",                       // stores nothing
		"#harl-tiered-rst v1\n#counts -1 2\n0 10 1 1\n",                  // negative count
		"#harl-tiered-rst v1\n#counts 2\n0 10 4611686018427387904\n",     // round overflows int64
		"#harl-tiered-rst v1\n#counts 1 1\n0 10 9223372036854775807 1\n", // round overflows int64
		"#harl-tiered-rst v1\n#counts 6 1\n#counts 1\n0 10 1 1 1\n",      // second #counts line
		"#harl-tiered-rst v1\n#countsX 2\n0 10 1\n",                      // #counts misspelled
		// The header opens the table, once; #counts follows it.
		"#harl-tiered-rst v1\n#counts 1\n0 10 1\n#harl-tiered-rst v1\n10 20 1\n",
		"#counts 1\n#harl-tiered-rst v1\n0 10 1\n",
	}
	for i, in := range cases {
		if _, err := ReadTieredRST(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestReadTieredRSTSkipsCommentsAndBlank(t *testing.T) {
	in := "#harl-tiered-rst v1\n\n# note\n#counts 2 1\n0 100 4096 8192\n"
	got, err := ReadTieredRST(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 1 || got.Entries[0].Stripes[1] != 8192 {
		t.Fatalf("parsed %+v", got)
	}
}
