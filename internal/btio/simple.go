package btio

import (
	"fmt"

	"harl/internal/mpiio"
	"harl/internal/sim"
)

// The "simple" subtype: every rank writes each contiguous row of its
// blocks as an independent file request, with no collective buffering.
// NPB ships it as the pessimal baseline; comparing it against the full
// subtype shows what two-phase I/O buys on a striped file system.

// runSimple executes the simple-subtype lifecycle: per snapshot, every
// rank issues its row writes closed-loop; a countdown acts as the
// inter-snapshot barrier. The read-back phase mirrors it.
func runSimple(w *mpiio.World, f mpiio.File, cfg Config, p int) (Result, error) {
	res := Result{Config: cfg, Verified: true}
	var runErr error
	sol := cfg.newSolution(p)

	w.Run(func() {
		writeStart := w.Engine().Now()
		var writeSnapshot func(snap int)
		var readAll func()

		writeSnapshot = func(snap int) {
			if snap == cfg.Snapshots() {
				res.WriteBytes = cfg.TotalBytes()
				res.WriteTime = w.Engine().Now().Sub(writeStart)
				readAll()
				return
			}
			all := sol.writes(snap)
			barrier := sim.NewCountdown(cfg.Ranks, func() { writeSnapshot(snap + 1) })
			for r := 0; r < cfg.Ranks; r++ {
				pieces := all[r]
				r := r
				var issue func(i int)
				issue = func(i int) {
					if i == len(pieces) {
						barrier.Done()
						return
					}
					f.WriteAt(r, pieces[i].Off, pieces[i].Data, func(err error) {
						if err != nil && runErr == nil {
							runErr = err
						}
						issue(i + 1)
					})
				}
				issue(0)
			}
		}

		readAll = func() {
			readStart := w.Engine().Now()
			var readSnapshot func(snap int)
			readSnapshot = func(snap int) {
				if snap == cfg.Snapshots() {
					res.ReadBytes = cfg.TotalBytes()
					res.ReadTime = w.Engine().Now().Sub(readStart)
					return
				}
				all := sol.reads(snap)
				barrier := sim.NewCountdown(cfg.Ranks, func() { readSnapshot(snap + 1) })
				for r := 0; r < cfg.Ranks; r++ {
					ranges := all[r]
					r := r
					var issue func(i int)
					issue = func(i int) {
						if i == len(ranges) {
							barrier.Done()
							return
						}
						rg := ranges[i]
						f.ReadAt(r, rg.Off, rg.Size, func(data []byte, err error) {
							if err != nil && runErr == nil {
								runErr = err
							}
							if cfg.Verify && runErr == nil {
								if !sol.check(snap, r, i, data) {
									res.Verified = false
									if runErr == nil {
										runErr = fmt.Errorf("btio: simple subtype snapshot %d rank %d row %d mismatch", snap, r, i)
									}
								}
							}
							issue(i + 1)
						})
					}
					issue(0)
				}
			}
			readSnapshot(0)
		}

		writeSnapshot(0)
	})
	return res, runErr
}

// Hook Simple into Run: the dispatch lives here to keep btio.go focused
// on the collective (paper) path.
func dispatchRun(w *mpiio.World, f mpiio.File, cfg Config, p int) (Result, bool, error) {
	if cfg.Subtype != Simple {
		return Result{}, false, nil
	}
	res, err := runSimple(w, f, cfg, p)
	return res, true, err
}
