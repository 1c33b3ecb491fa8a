package pfs

import (
	"bytes"
	"testing"

	"harl/internal/layout"
)

// scribble overwrites buf with a byte no test payload is made of.
func scribble(buf []byte) {
	for i := range buf {
		buf[i] = 0xA5
	}
}

// readBack reads [off, off+size) of f and fails the test on an error.
func readBack(t *testing.T, f *File, off, size int64) []byte {
	t.Helper()
	var got []byte
	e := f.Engine()
	e.Schedule(0, func() {
		f.ReadAt(off, size, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = data
		})
	})
	e.Run()
	return got
}

// TestWriteCopiesCallerBufferAtSubmit pins the buffer-ownership rule the
// collective layer and BTIO's reused solution array rely on: WriteAt
// copies the caller's bytes before it returns, so the caller may reuse
// its buffer at once, before done fires. The replicated case also
// covers the retained log: a crashed backup catches up from records
// whose payload must be the submitted bytes, not the caller's buffer.
func TestWriteCopiesCallerBufferAtSubmit(t *testing.T) {
	st := layout.Fixed(6, 2, 64<<10)
	for _, r := range []int{1, 2} {
		e, fs := testbed(t)
		fs.ClientPolicy = retryPolicy()
		f := mustCreateRepl(t, e, fs.NewClient("c0"), "data", st, r)
		first, second := fill(31, 512<<10), fill(32, 512<<10)
		want := append(append([]byte(nil), first...), second...)

		write := func(buf []byte, off int64) {
			e.Schedule(0, func() {
				f.WriteAt(buf, off, func(err error) {
					if err != nil {
						t.Errorf("r=%d write at %d: %v", r, off, err)
					}
				})
				scribble(buf)
			})
			e.Run()
		}
		write(first, 0)
		if r > 1 {
			// Server 0 misses the second write and later replays it from
			// the log.
			fs.Crash(0)
		}
		write(second, int64(len(first)))
		if r > 1 {
			fs.Recover(0)
			e.Run()
			if fs.Repl.CatchUpRecords == 0 {
				t.Fatalf("r=%d: recovery replayed no records: %+v", r, fs.Repl)
			}
		}
		if got := readBack(t, f, 0, int64(len(want))); !bytes.Equal(got, want) {
			t.Fatalf("r=%d: read-back holds the caller's later bytes, not the submitted ones", r)
		}
	}
}

// TestReadIntoSpanFillsOnlyDestination: a read into a window of a larger
// buffer fills exactly that window with the file's bytes.
func TestReadIntoSpanFillsOnlyDestination(t *testing.T) {
	e, fs := testbed(t)
	f := mustCreate(t, e, fs.NewClient("c0"), "data", layout.Striping{M: 6, N: 2, H: 12 << 10, S: 40 << 10})
	payload := fill(33, 300<<10)
	e.Schedule(0, func() {
		f.WriteAt(payload, 0, func(err error) {
			if err != nil {
				t.Errorf("write: %v", err)
			}
		})
	})
	e.Run()

	const off, size, at = 7 << 10, 200 << 10, 3
	buf := make([]byte, size+2*at)
	scribble(buf)
	var readErr error
	settled := false
	e.Schedule(0, func() {
		f.ReadIntoSpan(0, buf[at:at+size], off, func(err error) { settled, readErr = true, err })
	})
	e.Run()
	if !settled || readErr != nil {
		t.Fatalf("read settled=%v err=%v", settled, readErr)
	}
	if !bytes.Equal(buf[at:at+size], payload[off:off+size]) {
		t.Fatal("destination window holds the wrong bytes")
	}
	for _, i := range []int{0, at - 1, at + size, len(buf) - 1} {
		if buf[i] != 0xA5 {
			t.Fatalf("byte %d outside the destination was overwritten", i)
		}
	}
	if got := readBack(t, f, off, size); !bytes.Equal(got, buf[at:at+size]) {
		t.Fatal("ReadAt and ReadIntoSpan disagree")
	}
}
