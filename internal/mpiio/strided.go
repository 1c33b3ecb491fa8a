package mpiio

import (
	"fmt"
	"strconv"

	"harl/internal/obs"
	"harl/internal/sim"
)

// Strided (noncontiguous) independent I/O with data sieving — the ROMIO
// optimization the paper's related work starts from ([13], Thakur et
// al.): instead of issuing many small file requests for a strided
// pattern, the middleware reads the single contiguous extent covering
// the pattern and extracts the wanted pieces ("sieves" them), trading
// extra bytes on the wire for far fewer requests. Writes sieve through a
// read-modify-write of the covering extent.

// Strided describes Count blocks of BlockSize bytes, the k-th at
// Offset + k*Stride — the classic nested-strided pattern of
// multidimensional array I/O.
type Strided struct {
	Offset    int64
	BlockSize int64
	Stride    int64
	Count     int
}

// Validate reports whether the pattern is well-formed.
func (s Strided) Validate() error {
	switch {
	case s.Offset < 0:
		return fmt.Errorf("mpiio: negative strided offset")
	case s.BlockSize <= 0:
		return fmt.Errorf("mpiio: non-positive block size %d", s.BlockSize)
	case s.Count <= 0:
		return fmt.Errorf("mpiio: non-positive block count %d", s.Count)
	case s.Count > 1 && s.Stride < s.BlockSize:
		return fmt.Errorf("mpiio: stride %d smaller than block %d", s.Stride, s.BlockSize)
	}
	return nil
}

// Bytes returns the payload bytes the pattern touches.
func (s Strided) Bytes() int64 { return int64(s.Count) * s.BlockSize }

// Extent returns the contiguous span covering the whole pattern.
func (s Strided) Extent() int64 {
	return int64(s.Count-1)*s.Stride + s.BlockSize
}

// density is the fraction of the covering extent the pattern touches.
func (s Strided) density() float64 {
	return float64(s.Bytes()) / float64(s.Extent())
}

// SieveThreshold is the default density above which sieving pays: when
// the pattern touches at least this fraction of its covering extent, one
// big request beats Count small ones.
const SieveThreshold = 0.3

// ReadStrided fetches a strided pattern on behalf of rank, returning the
// Count blocks in order. Patterns denser than SieveThreshold are sieved
// (one covering read); sparse patterns fall back to per-block requests.
func (w *World) ReadStrided(f File, rank int, pattern Strided, done func([][]byte, error)) {
	if err := pattern.Validate(); err != nil {
		w.engine.Schedule(0, func() { done(nil, err) })
		return
	}
	sieved := pattern.density() >= SieveThreshold
	if tr := w.fs.Tracer(); tr != nil {
		span := tr.Begin(w.Client(rank).Name(), "strided.read", 0,
			obs.T("file", f.Name()), obs.TInt("rank", int64(rank)),
			obs.TInt("blocks", int64(pattern.Count)), obs.TInt("bytes", pattern.Bytes()),
			obs.T("density", strconv.FormatFloat(pattern.density(), 'g', 3, 64)),
			obs.T("sieved", strconv.FormatBool(sieved)))
		origDone := done
		done = func(bufs [][]byte, err error) {
			tr.End(span, obs.T("status", opStatus(err)))
			origDone(bufs, err)
		}
	}
	blocks := make([][]byte, pattern.Count)
	if sieved {
		f.ReadAt(rank, pattern.Offset, pattern.Extent(), func(data []byte, err error) {
			if err != nil {
				done(nil, err)
				return
			}
			for k := 0; k < pattern.Count; k++ {
				at := int64(k) * pattern.Stride
				blocks[k] = append([]byte(nil), data[at:at+pattern.BlockSize]...)
			}
			done(blocks, nil)
		})
		return
	}
	remaining := sim.NewCountdown(pattern.Count, func(err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(blocks, nil)
	})
	for k := 0; k < pattern.Count; k++ {
		k := k
		f.ReadAt(rank, pattern.Offset+int64(k)*pattern.Stride, pattern.BlockSize,
			func(data []byte, err error) {
				blocks[k] = data
				remaining.Done(err)
			})
	}
}

// WriteStrided stores Count blocks (blocks[k] at Offset + k*Stride).
// Dense patterns sieve through read-modify-write of the covering extent;
// sparse patterns issue per-block writes.
func (w *World) WriteStrided(f File, rank int, pattern Strided, blocks [][]byte, done func(error)) {
	if err := pattern.Validate(); err != nil {
		w.engine.Schedule(0, func() { done(err) })
		return
	}
	if len(blocks) != pattern.Count {
		w.engine.Schedule(0, func() {
			done(fmt.Errorf("mpiio: %d blocks for count %d", len(blocks), pattern.Count))
		})
		return
	}
	for k, b := range blocks {
		if int64(len(b)) != pattern.BlockSize {
			k, b := k, b
			w.engine.Schedule(0, func() {
				done(fmt.Errorf("mpiio: block %d has %d bytes, want %d", k, len(b), pattern.BlockSize))
			})
			return
		}
	}
	sieved := pattern.density() >= SieveThreshold && pattern.Count > 1
	if tr := w.fs.Tracer(); tr != nil {
		span := tr.Begin(w.Client(rank).Name(), "strided.write", 0,
			obs.T("file", f.Name()), obs.TInt("rank", int64(rank)),
			obs.TInt("blocks", int64(pattern.Count)), obs.TInt("bytes", pattern.Bytes()),
			obs.T("density", strconv.FormatFloat(pattern.density(), 'g', 3, 64)),
			obs.T("sieved", strconv.FormatBool(sieved)))
		origDone := done
		done = func(err error) {
			tr.End(span, obs.T("status", opStatus(err)))
			origDone(err)
		}
	}
	if sieved {
		// Read-modify-write: fetch the covering extent, splice the
		// blocks in, write it back as one request.
		f.ReadAt(rank, pattern.Offset, pattern.Extent(), func(data []byte, err error) {
			if err != nil {
				done(err)
				return
			}
			for k := 0; k < pattern.Count; k++ {
				copy(data[int64(k)*pattern.Stride:], blocks[k])
			}
			f.WriteAt(rank, pattern.Offset, data, done)
		})
		return
	}
	remaining := sim.NewCountdown(pattern.Count, done)
	for k := 0; k < pattern.Count; k++ {
		f.WriteAt(rank, pattern.Offset+int64(k)*pattern.Stride, blocks[k], func(err error) {
			remaining.Done(err)
		})
	}
}
