package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadTrace checks the decoder on arbitrary input: Read either
// rejects it or returns valid records whose byte ranges fit in an int64,
// and those records survive a Write/Read round trip unchanged.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		tr, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		sum := tr.Summarize()
		for i, r := range tr.Records {
			if err := r.Validate(); err != nil {
				t.Fatalf("accepted record %d is invalid: %v", i, err)
			}
			if r.Offset > math.MaxInt64-r.Size {
				t.Fatalf("accepted record %d has range %d+%d past int64", i, r.Offset, r.Size)
			}
			if sum.MaxOffset < r.Offset+r.Size {
				t.Fatalf("record %d ends at %d, past the summary's extent %d", i, r.Offset+r.Size, sum.MaxOffset)
			}
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			t.Fatalf("accepted trace does not encode: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding %q: %v", buf.String(), err)
		}
		if len(again.Records) != len(tr.Records) || (len(tr.Records) > 0 && !reflect.DeepEqual(again.Records, tr.Records)) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", again.Records, tr.Records)
		}
	})
}
