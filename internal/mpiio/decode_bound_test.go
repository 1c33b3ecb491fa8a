package mpiio

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"harl/internal/harl"
)

// TestDecodedRSTBoundsAtPlacement pins what happens to tables ReadRST
// accepts but the cluster cannot hold. RST.Validate cannot bound the
// stripes without the server counts, so the bound is enforced when the
// table is placed: a round size that overflows int64 on 6H+2S is an
// error from CreateHARL, never a panic. A replication factor above the
// server count is not an error; it is capped at the cluster size, as
// repl.Place documents.
func TestDecodedRSTBoundsAtPlacement(t *testing.T) {
	const quarter = math.MaxInt64 / 4
	cases := []struct {
		name    string
		table   string
		wantErr string // "" means the file must be created
		wantR   int    // replica-group size when created
	}{
		{"H=MaxInt64", fmt.Sprintf("#harl-rst v1\n0 1048576 %d 65536\n", int64(math.MaxInt64)), "round size overflows int64", 0},
		{"H=S=MaxInt64/4", fmt.Sprintf("#harl-rst v1\n0 1048576 %d %d\n", quarter, quarter), "round size overflows int64", 0},
		{"R above servers", "#harl-rst v2\n0 1048576 65536 65536 99\n", "", 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rst, err := harl.ReadRST(strings.NewReader(c.table))
			if err != nil {
				t.Fatalf("ReadRST rejected the table: %v", err)
			}
			tb, w := world62(t, 2)
			var f *HARLFile
			var createErr error
			w.Run(func() {
				w.CreateHARL("bound", rst, func(file *HARLFile, err error) { f, createErr = file, err })
			})
			if c.wantErr != "" {
				if createErr == nil || !strings.Contains(createErr.Error(), c.wantErr) {
					t.Fatalf("CreateHARL error = %v, want one containing %q", createErr, c.wantErr)
				}
				return
			}
			if createErr != nil {
				t.Fatalf("CreateHARL: %v", createErr)
			}
			slots := tb.FS.ReplStatus(f.r2f.File(0))
			if len(slots) == 0 {
				t.Fatal("region is not replicated")
			}
			for _, s := range slots {
				if len(s.Members) != c.wantR {
					t.Fatalf("slot %d has %d replicas, want %d (capped at the server count)", s.Slot, len(s.Members), c.wantR)
				}
			}
			payload := bytes.Repeat([]byte{0x5a}, 256<<10)
			var got []byte
			w.Run(func() {
				f.WriteAt(0, 0, payload, func(err error) {
					if err != nil {
						t.Errorf("write: %v", err)
						return
					}
					f.ReadAt(1, 0, int64(len(payload)), func(data []byte, _ error) { got = data })
				})
			})
			if !bytes.Equal(got, payload) {
				t.Fatal("capped replicated region lost the written bytes")
			}
		})
	}
}
