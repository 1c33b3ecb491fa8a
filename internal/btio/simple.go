package btio

import (
	"harl/internal/mpiio"
	"harl/internal/sim"
)

// The "simple" subtype: every rank writes each contiguous row of its
// blocks as an independent file request, with no collective buffering.
// NPB ships it as the pessimal baseline; comparing it against the full
// subtype shows what two-phase I/O buys on a striped file system.
// writeRows and readRows share the collective calls' shapes, so Run
// drives both subtypes through one snapshot loop.

// writeRows writes one snapshot the simple way.
func writeRows(f mpiio.File, pieces [][]mpiio.CollPiece, done func(error)) {
	rowChains(pieces, func(r, i int, next func(error)) {
		f.WriteAt(r, pieces[r][i].Off, pieces[r][i].Data, next)
	}, done)
}

// readRows reads one snapshot the simple way, into one buffer per row.
func readRows(f mpiio.File, ranges [][]mpiio.CollRange, done func([][][]byte, error)) {
	bufs := make([][][]byte, len(ranges))
	for r := range bufs {
		bufs[r] = make([][]byte, len(ranges[r]))
	}
	rowChains(ranges, func(r, i int, next func(error)) {
		f.ReadAt(r, ranges[r][i].Off, ranges[r][i].Size, func(data []byte, err error) {
			bufs[r][i] = data
			next(err)
		})
	}, func(err error) { done(bufs, err) })
}

// rowChains issues every rank's rows closed-loop: issue(r, i, next)
// starts rank r's row i, and next(err) issues the rank's following row.
// One Countdown over the ranks acts as the snapshot barrier and calls
// done, with the first error a rank reported, once every rank's last
// row is in.
func rowChains[E any](rows [][]E, issue func(r, i int, next func(error)), done func(error)) {
	barrier := sim.NewCountdown(len(rows), done)
	for r := range rows {
		var rankErr error
		var step func(i int)
		step = func(i int) {
			if i == len(rows[r]) {
				barrier.Done(rankErr)
				return
			}
			issue(r, i, func(err error) {
				if rankErr == nil {
					rankErr = err
				}
				step(i + 1)
			})
		}
		step(0)
	}
}
