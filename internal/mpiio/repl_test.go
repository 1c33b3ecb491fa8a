package mpiio

import (
	"bytes"
	"math/rand"
	"testing"

	"harl/internal/harl"
	"harl/internal/pfs"
)

// replRST marks the hot middle region for 2-way replication; the outer
// regions stay unreplicated.
func replRST() *harl.RST {
	return &harl.RST{Entries: []harl.RSTEntry{
		{Offset: 0, End: 1 << 20, H: 16 << 10, S: 64 << 10},
		{Offset: 1 << 20, End: 3 << 20, H: 0, S: 128 << 10, R: 2},
		{Offset: 3 << 20, End: 4 << 20, H: 36 << 10, S: 148 << 10},
	}}
}

func TestReplHARLFileRoundTrip(t *testing.T) {
	tb, w := world62(t, 4)
	var f *HARLFile
	payload := make([]byte, 2<<20)
	rand.New(rand.NewSource(8)).Read(payload)
	const off = 900 << 10 // spans all three regions
	var got []byte
	w.Run(func() {
		w.CreateHARL("bigfile", replRST(), func(file *HARLFile, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f = file
			f.WriteAt(0, off, payload, func(error) {
				f.ReadAt(2, off, int64(len(payload)), func(data []byte, _ error) { got = data })
			})
		})
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("replicated cross-region round trip mismatch")
	}
	if f == nil || f.Regions() != 3 {
		t.Fatal("region accounting broken")
	}
	// Only the R=2 region may run the replication protocol.
	if tb.FS.Repl.ChainWrites == 0 || tb.FS.Repl.Forwards == 0 {
		t.Fatalf("replicated region never forwarded: %+v", tb.FS.Repl)
	}
	r2f := harl.BuildR2F("bigfile", replRST())
	if tb.FS.ReplStatus(r2f.File(1)) == nil {
		t.Fatal("region 1's physical file is not replicated")
	}
	if tb.FS.ReplStatus(r2f.File(0)) != nil || tb.FS.ReplStatus(r2f.File(2)) != nil {
		t.Fatal("unreplicated regions gained protocol state")
	}
}

func TestReplHARLFileSurvivesCrash(t *testing.T) {
	tb, w := world62(t, 4)
	tb.FS.ClientPolicy = pfs.Policy{Timeout: 50e6, MaxRetries: 8, Backoff: 2e6}
	var f *HARLFile
	// Confine the payload to the replicated region [1MB, 3MB).
	payload := make([]byte, 1<<20)
	rand.New(rand.NewSource(9)).Read(payload)
	const off = 1 << 20
	w.Run(func() {
		w.CreateHARL("bigfile", replRST(), func(file *HARLFile, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			f = file
			f.WriteAt(0, off, payload, func(err error) {
				if err != nil {
					t.Errorf("write: %v", err)
				}
			})
		})
	})
	// The replicated region stripes only SServers (H=0): crash one.
	tb.FS.Crash(6)
	var got []byte
	w.Run(func() {
		f.ReadAt(1, off, int64(len(payload)), func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got = data
		})
	})
	if !bytes.Equal(got, payload) {
		t.Fatal("acked bytes unreadable after replica crash")
	}
	if tb.FS.Repl.Promotions == 0 {
		t.Fatal("crash caused no view change")
	}
}
