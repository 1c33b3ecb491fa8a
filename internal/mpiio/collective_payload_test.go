package mpiio

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"harl/internal/layout"
)

// btioShape returns a class-S BTIO snapshot's pieces and read ranges for
// 16 ranks: a 12^3 grid of 40-byte cells in a diagonal multi-partition
// over p=4, one piece and one range per 3-cell row, with every row split
// into split equal parts. Splitting multiplies the pieces and ranges per
// rank without moving a byte, so the collective's intervals and file
// requests stay the same.
func btioShape(split int) ([][]CollPiece, [][]CollRange, []byte) {
	const (
		p     = 4
		n     = 12
		b     = n / p
		cell  = 40
		ranks = p * p
	)
	image := make([]byte, n*n*n*cell)
	for i := range image {
		image[i] = byte(i*7 + i/251)
	}
	pieces := make([][]CollPiece, ranks)
	ranges := make([][]CollRange, ranks)
	for r := 0; r < ranks; r++ {
		i, j := r%p, r/p
		for k := 0; k < p; k++ {
			bi, bj := (i+k)%p, (j+k)%p
			for dz := 0; dz < b; dz++ {
				for dy := 0; dy < b; dy++ {
					off := int64((((k*b+dz)*n+bj*b+dy)*n + bi*b) * cell)
					row := image[off : off+b*cell]
					step := len(row) / split
					for s := 0; s < split; s++ {
						at := s * step
						pieces[r] = append(pieces[r], CollPiece{Off: off + int64(at), Data: row[at : at+step]})
						ranges[r] = append(ranges[r], CollRange{Off: off + int64(at), Size: int64(step)})
					}
				}
			}
		}
	}
	return pieces, ranges, image
}

// btioWorld creates the 16-rank world and a plain file striped like the
// benchmarks' default layout.
func btioWorld(t testing.TB) (*World, *PlainFile) {
	t.Helper()
	_, w := world62(t, 16)
	var f *PlainFile
	w.Run(func() {
		w.CreatePlain("coll", layout.Fixed(6, 2, 4<<10), func(file *PlainFile, err error) {
			if err != nil {
				t.Fatalf("create: %v", err)
			}
			f = file
		})
	})
	return w, f
}

// TestCollectiveWriteKeepsNoPieceData pins the other half of the
// buffer-ownership rule: once CollectiveWrite's done fires, the file
// holds copies, so a caller may reuse every piece's buffer, as BTIO's
// solution array does.
func TestCollectiveWriteKeepsNoPieceData(t *testing.T) {
	w, f := btioWorld(t)
	pieces, _, image := btioShape(1)
	owned := make([][]CollPiece, len(pieces))
	for r, ps := range pieces {
		for _, p := range ps {
			owned[r] = append(owned[r], CollPiece{Off: p.Off, Data: append([]byte(nil), p.Data...)})
		}
	}
	var got []byte
	w.Run(func() {
		w.CollectiveWrite(f, owned, func(err error) {
			if err != nil {
				t.Errorf("collective write: %v", err)
				return
			}
			for _, ps := range owned {
				for _, p := range ps {
					clear(p.Data)
				}
			}
			f.ReadAt(0, 0, int64(len(image)), func(data []byte, _ error) { got = data })
		})
	})
	if !bytes.Equal(got, image) {
		t.Fatal("read-back changed with the caller's buffers after done")
	}
}

// TestCollectiveReadSlabViews: overlapping requests, from one rank and
// across ranks, each get exactly their bytes, and every rank's buffers
// are disjoint views that cannot grow into each other.
func TestCollectiveReadSlabViews(t *testing.T) {
	w, f := btioWorld(t)
	_, _, image := btioShape(1)
	w.Run(func() { f.WriteAt(0, 0, image, func(error) {}) })
	ext := int64(len(image))
	ranges := make([][]CollRange, 16)
	ranges[0] = []CollRange{{Off: 0, Size: ext}, {Off: 100, Size: 0}, {Off: ext / 3, Size: ext / 2}}
	ranges[5] = []CollRange{{Off: ext / 3, Size: ext / 2}, {Off: ext - 1, Size: 1}}
	ranges[15] = []CollRange{{Off: 17, Size: 4000}, {Off: 10, Size: 20}}
	var bufs [][][]byte
	w.Run(func() {
		w.CollectiveRead(f, ranges, func(out [][][]byte, err error) {
			if err != nil {
				t.Errorf("collective read: %v", err)
			}
			bufs = out
		})
	})
	for r, rs := range ranges {
		if len(bufs[r]) != len(rs) {
			t.Fatalf("rank %d: %d buffers for %d ranges", r, len(bufs[r]), len(rs))
		}
		for i, rg := range rs {
			if !bytes.Equal(bufs[r][i], image[rg.Off:rg.Off+rg.Size]) {
				t.Fatalf("rank %d range %d: wrong bytes", r, i)
			}
			if cap(bufs[r][i]) != len(bufs[r][i]) {
				t.Fatalf("rank %d range %d: view can grow into its neighbour", r, i)
			}
		}
	}
}

// TestCollectiveAllocsIndependentOfPieces pins the collectives'
// allocations to O(ranks + intervals): doubling or quadrupling the
// pieces or ranges per rank, over the same bytes, must not add one.
func TestCollectiveAllocsIndependentOfPieces(t *testing.T) {
	w, f := btioWorld(t)
	count := func(split int) (write, read float64) {
		pieces, ranges, _ := btioShape(split)
		done := func(err error) {
			if err != nil {
				t.Fatalf("split %d write: %v", split, err)
			}
		}
		rdone := func(_ [][][]byte, err error) {
			if err != nil {
				t.Fatalf("split %d read: %v", split, err)
			}
		}
		write = testing.AllocsPerRun(5, func() { w.Run(func() { w.CollectiveWrite(f, pieces, done) }) })
		read = testing.AllocsPerRun(5, func() { w.Run(func() { w.CollectiveRead(f, ranges, rdone) }) })
		return write, read
	}
	w1, r1 := count(1)
	for _, split := range []int{2, 4} {
		ws, rs := count(split)
		if ws > w1 {
			t.Errorf("write: %v allocs with %dx the pieces, %v with 1x", ws, split, w1)
		}
		if rs > r1 {
			t.Errorf("read: %v allocs with %dx the pieces, %v with 1x", rs, split, r1)
		}
	}
}

func BenchmarkCollectiveWrite(b *testing.B) {
	w, f := btioWorld(b)
	pieces, _, image := btioShape(1)
	b.ReportAllocs()
	b.SetBytes(int64(len(image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func() {
			w.CollectiveWrite(f, pieces, func(err error) {
				if err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

func BenchmarkCollectiveRead(b *testing.B) {
	w, f := btioWorld(b)
	_, ranges, image := btioShape(1)
	w.Run(func() { f.WriteAt(0, 0, image, func(error) {}) })
	b.ReportAllocs()
	b.SetBytes(int64(len(image)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func() {
			w.CollectiveRead(f, ranges, func(_ [][][]byte, err error) {
				if err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// FuzzMergePieces checks the two-pass merge against a flat-image oracle.
// Each 3-byte group of the input is one piece: offset, length (0-39) and
// a content tag; overlapping, adjacent, disjoint and empty pieces all
// occur. The oracle paints the pieces, stably sorted by offset, into a
// flat image, so a later piece wins an overlap. The intervals must be
// sorted, maximal (no two touch), exactly the painted bytes, and carry
// the painted image.
func FuzzMergePieces(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		var pieces []CollPiece
		for k := 0; k+2 < len(in); k += 3 {
			data := make([]byte, int(in[k+1])%40)
			for i := range data {
				data[i] = byte(k*31 + int(in[k+2]) + i)
			}
			pieces = append(pieces, CollPiece{Off: int64(in[k]), Data: data})
		}
		const extent = 256 + 40
		image := make([]byte, extent)
		painted := make([]bool, extent)
		order := slices.Clone(pieces)
		slices.SortStableFunc(order, func(a, b CollPiece) int { return cmp.Compare(a.Off, b.Off) })
		for _, p := range order {
			copy(image[p.Off:], p.Data)
			for i := range p.Data {
				painted[p.Off+int64(i)] = true
			}
		}

		ivs := mergePieces(pieces)
		covered := make([]bool, extent)
		for i, iv := range ivs {
			if iv.end-iv.off != int64(len(iv.data)) || len(iv.data) == 0 {
				t.Fatalf("interval %d: [%d,%d) with %d bytes", i, iv.off, iv.end, len(iv.data))
			}
			if i > 0 && ivs[i-1].end >= iv.off {
				t.Fatalf("intervals %d and %d not sorted and maximal: %s", i-1, i, describe(ivs))
			}
			if !bytes.Equal(iv.data, image[iv.off:iv.end]) {
				t.Fatalf("interval %d bytes differ from the image", i)
			}
			for o := iv.off; o < iv.end; o++ {
				covered[o] = true
			}
		}
		if !slices.Equal(covered, painted) {
			t.Fatalf("intervals %s do not cover exactly the painted bytes", describe(ivs))
		}
	})
}

func describe(ivs []interval) string {
	var s []string
	for _, iv := range ivs {
		s = append(s, fmt.Sprintf("[%d,%d)", iv.off, iv.end))
	}
	return fmt.Sprint(s)
}
