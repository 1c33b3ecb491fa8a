package harl

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReplRSTV1RoundTripUnchanged(t *testing.T) {
	rst := RST{Entries: []RSTEntry{
		{Offset: 0, End: 100, H: 64, S: 128},
		{Offset: 100, End: 300, H: 0, S: 64},
	}}
	var buf bytes.Buffer
	if err := rst.Write(&buf); err != nil {
		t.Fatal(err)
	}
	// No replicated region: the table must stay in the v1 format so
	// pre-replication tooling keeps reading it.
	if !strings.HasPrefix(buf.String(), rstHeader+"\n") {
		t.Fatalf("header = %q, want v1", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	got, err := ReadRST(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries, rst.Entries) {
		t.Fatalf("round trip: %+v != %+v", got.Entries, rst.Entries)
	}
}

func TestReplRSTV2RoundTrip(t *testing.T) {
	rst := RST{Entries: []RSTEntry{
		{Offset: 0, End: 100, H: 64, S: 128, R: 2},
		{Offset: 100, End: 300, H: 0, S: 64, R: 1},
		{Offset: 300, End: 400, H: 32, S: 32, R: 3},
	}}
	var buf bytes.Buffer
	if err := rst.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), rstHeaderV2+"\n") {
		t.Fatalf("header = %q, want v2", strings.SplitN(buf.String(), "\n", 2)[0])
	}
	got, err := ReadRST(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Entries, rst.Entries) {
		t.Fatalf("round trip: %+v != %+v", got.Entries, rst.Entries)
	}
}

func TestReplRSTMergeNormalizesR(t *testing.T) {
	// R=0 and R=1 are the same protocol, so adjacent regions differing
	// only in that spelling merge; a genuine R=2 region does not.
	rst := RST{Entries: []RSTEntry{
		{Offset: 0, End: 100, H: 64, S: 64, R: 0},
		{Offset: 100, End: 200, H: 64, S: 64, R: 1},
		{Offset: 200, End: 300, H: 64, S: 64, R: 2},
	}}
	if removed := rst.Merge(); removed != 1 {
		t.Fatalf("removed %d entries, want 1", removed)
	}
	if len(rst.Entries) != 2 || rst.Entries[0].End != 200 || rst.Entries[1].R != 2 {
		t.Fatalf("merged table %+v", rst.Entries)
	}
}

func TestReplRSTValidateRejectsNegativeR(t *testing.T) {
	rst := RST{Entries: []RSTEntry{{Offset: 0, End: 100, H: 64, S: 64, R: -1}}}
	if rst.Validate() == nil {
		t.Fatal("negative R validated")
	}
}
