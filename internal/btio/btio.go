// Package btio reimplements the NAS BTIO benchmark's I/O kernel (the
// paper's Section IV-C workload): the Block-Tridiagonal solver's
// checkpointing pattern. P = p² processes own a diagonal multi-partition
// of an N³ grid of 5-double cells; every WriteInterval time steps each
// process appends its blocks of the solution array to a shared file with
// collective I/O, and at the end the whole solution history is read back
// and verified ("full" subtype: MPI collective buffering enabled).
//
// The computation (the Navier–Stokes solve) is elided — it never touches
// the I/O path; time steps exist only to sequence the write phases.
package btio

import (
	"bytes"
	"fmt"
	"math"

	"harl/internal/mpiio"
	"harl/internal/sim"
	"harl/internal/stats"
)

// CellBytes is the solution vector size per grid cell: 5 double-precision
// words.
const CellBytes = 5 * 8

// Subtype selects the I/O method, as NPB BTIO's build-time subtypes do.
type Subtype int

// Subtypes.
const (
	// Full is the paper's evaluation subtype: MPI collective I/O with
	// collective buffering (two-phase I/O).
	Full Subtype = iota
	// Simple issues each rank's noncontiguous rows as independent
	// requests — no aggregation, the pattern the PFS is worst at.
	Simple
)

// String names the subtype as NPB does.
func (s Subtype) String() string {
	if s == Simple {
		return "simple"
	}
	return "full"
}

// Config parameterizes a BTIO run.
type Config struct {
	Ranks        int // must be a perfect square (BTIO requirement)
	RanksPerNode int
	Grid         int // N: the grid is N x N x N cells
	TimeSteps    int
	Interval     int // write every Interval steps (wr_interval, default 5)
	Subtype      Subtype
	Verify       bool
}

// Class presets mirror the NPB problem classes the paper draws from;
// class A (the paper's choice) appends 40 snapshots of a 64^3 grid.
func ClassS(ranks int) Config {
	return Config{Ranks: ranks, RanksPerNode: 2, Grid: 12, TimeSteps: 60, Interval: 5, Verify: true}
}

// ClassW is the workstation class: 24^3 grid, 200 steps.
func ClassW(ranks int) Config {
	return Config{Ranks: ranks, RanksPerNode: 2, Grid: 24, TimeSteps: 200, Interval: 5, Verify: true}
}

// ClassA is the paper's evaluation class: 64^3 grid, 200 steps, 40
// snapshots of ~10.5 MB each.
func ClassA(ranks int) Config {
	return Config{Ranks: ranks, RanksPerNode: 2, Grid: 64, TimeSteps: 200, Interval: 5}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	p := int(math.Round(math.Sqrt(float64(c.Ranks))))
	switch {
	case c.Ranks <= 0 || p*p != c.Ranks:
		return fmt.Errorf("btio: ranks %d is not a perfect square", c.Ranks)
	case c.RanksPerNode <= 0:
		return fmt.Errorf("btio: invalid ranks per node %d", c.RanksPerNode)
	case c.Grid <= 0 || c.Grid%p != 0:
		return fmt.Errorf("btio: grid %d not divisible by p=%d", c.Grid, p)
	case c.TimeSteps <= 0 || c.Interval <= 0:
		return fmt.Errorf("btio: invalid steps %d / interval %d", c.TimeSteps, c.Interval)
	}
	return nil
}

// Snapshots returns how many solution dumps the run appends.
func (c Config) Snapshots() int { return c.TimeSteps / c.Interval }

// SnapshotBytes returns the size of one solution dump.
func (c Config) SnapshotBytes() int64 {
	n := int64(c.Grid)
	return n * n * n * CellBytes
}

// TotalBytes returns the bytes written (and, with the final read-back,
// also read) by the run.
func (c Config) TotalBytes() int64 { return int64(c.Snapshots()) * c.SnapshotBytes() }

// block is one (N/p)^3 sub-cube owned by a rank.
type block struct{ bi, bj, bk int }

// blocksOf returns rank r's p diagonal blocks. BT's multi-partitioning
// assigns process (i,j) the blocks (i+k mod p, j+k mod p, k) for k in
// [0,p): every process touches every z-slab, which is what makes the
// file access pattern nested-strided.
func blocksOf(rank, p int) []block {
	i, j := rank%p, rank/p
	blocks := make([]block, p)
	for k := 0; k < p; k++ {
		blocks[k] = block{bi: (i + k) % p, bj: (j + k) % p, bk: k}
	}
	return blocks
}

// rows returns the linear cell index of the first cell of each
// contiguous row of rank r's blocks, in the rank's file order.
func (c Config) rows(rank, p int) []int64 {
	n := int64(c.Grid)
	b := n / int64(p)
	var out []int64
	for _, blk := range blocksOf(rank, p) {
		for dz := int64(0); dz < b; dz++ {
			z := int64(blk.bk)*b + dz
			for dy := int64(0); dy < b; dy++ {
				y := int64(blk.bj)*b + dy
				x := int64(blk.bi) * b
				out = append(out, (z*n+y)*n+x)
			}
		}
	}
	return out
}

// solution is every rank's share of the solution array, which BT keeps
// in one fixed buffer between dumps. Rank r's rows are views of one slab
// built once per run; each snapshot re-bases their file offsets and,
// when verifying, refills them. Reusing the slab is safe because a
// collective write copies the payload and keeps no reference to it once
// done fires, and a file write copies it when submitted.
type solution struct {
	snapBytes int64
	rowBytes  int
	pat       pattern   // nil unless verifying
	elems     [][]int64 // elems[r][i]: first cell of rank r's row i
	pieces    [][]mpiio.CollPiece
	ranges    [][]mpiio.CollRange
}

// newSolution lays out every rank's rows, with zero payloads.
func (c Config) newSolution(p int) *solution {
	s := &solution{
		snapBytes: c.SnapshotBytes(),
		rowBytes:  c.Grid / p * CellBytes,
		elems:     make([][]int64, c.Ranks),
		pieces:    make([][]mpiio.CollPiece, c.Ranks),
		ranges:    make([][]mpiio.CollRange, c.Ranks),
	}
	if c.Verify {
		s.pat = newPattern(s.rowBytes)
	}
	for r := range s.elems {
		elems := c.rows(r, p)
		slab := make([]byte, len(elems)*s.rowBytes)
		s.elems[r] = elems
		s.pieces[r] = make([]mpiio.CollPiece, len(elems))
		s.ranges[r] = make([]mpiio.CollRange, len(elems))
		for i := range elems {
			at := i * s.rowBytes
			s.pieces[r][i].Data = slab[at : at+s.rowBytes : at+s.rowBytes]
			s.ranges[r][i].Size = int64(s.rowBytes)
		}
	}
	return s
}

// writes re-bases every row onto snapshot snap, fills it with the
// snapshot's pattern when verifying, and returns the per-rank pieces.
func (s *solution) writes(snap int) [][]mpiio.CollPiece {
	base := int64(snap) * s.snapBytes
	for r, elems := range s.elems {
		for i, e := range elems {
			s.pieces[r][i].Off = base + e*CellBytes
			if s.pat != nil {
				copy(s.pieces[r][i].Data, s.pat.row(snap, e, s.rowBytes))
			}
		}
	}
	return s.pieces
}

// reads re-bases the read-back ranges onto snapshot snap and returns
// them; they mirror writes(snap).
func (s *solution) reads(snap int) [][]mpiio.CollRange {
	base := int64(snap) * s.snapBytes
	for r, elems := range s.elems {
		for i, e := range elems {
			s.ranges[r][i].Off = base + e*CellBytes
		}
	}
	return s.ranges
}

// check reports whether data is rank r's row i of snapshot snap.
func (s *solution) check(snap, r, i int, data []byte) bool {
	return bytes.Equal(data, s.pat.row(snap, s.elems[r][i], s.rowBytes))
}

// pattern is the deterministic, position-dependent verification pattern
// that detects any misplacement: byte i of the row starting at cell elem
// of snapshot snap is byte(seed + 7i), seed = 31·elem + 101·snap. As 7
// is odd, byte(seed + 7i) = byte(7(i + j)) with j = 183·seed mod 256
// (183 is 7's inverse mod 256), so every row is a window of one table
// and producing or checking it is a memmove or a memcmp.
type pattern []byte

// newPattern builds the table for rows of up to row bytes.
func newPattern(row int) pattern {
	t := make(pattern, 256+row)
	for k := range t {
		t[k] = byte(7 * k)
	}
	return t
}

// row returns the n-byte pattern of the row starting at cell elem.
func (t pattern) row(snap int, elem int64, n int) []byte {
	seed := elem*31 + int64(snap)*101
	j := int(byte(seed) * 183)
	return t[j : j+n]
}

// Result reports one BTIO run.
type Result struct {
	Config     Config
	WriteBytes int64
	ReadBytes  int64
	WriteTime  sim.Duration
	ReadTime   sim.Duration
	Verified   bool
}

// WriteMBs returns write throughput in MB/s.
func (r Result) WriteMBs() float64 {
	return stats.Throughput(r.WriteBytes, r.WriteTime.Seconds())
}

// ReadMBs returns read throughput in MB/s.
func (r Result) ReadMBs() float64 {
	return stats.Throughput(r.ReadBytes, r.ReadTime.Seconds())
}

// AggregateMBs returns the combined write+read throughput — the metric
// the paper's Fig. 12 plots.
func (r Result) AggregateMBs() float64 {
	return stats.Throughput(r.WriteBytes+r.ReadBytes, (r.WriteTime + r.ReadTime).Seconds())
}

// Run executes the BTIO kernel against f: Snapshots() write phases,
// then a full read-back of every snapshot (with verification when
// configured). The subtype only decides how one snapshot moves: the full
// subtype's one collective call, or the simple subtype's row chains
// (simple.go).
func Run(w *mpiio.World, f mpiio.File, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if w.Ranks() != cfg.Ranks {
		return Result{}, fmt.Errorf("btio: world has %d ranks, config wants %d", w.Ranks(), cfg.Ranks)
	}
	write, read := w.CollectiveWrite, w.CollectiveRead
	if cfg.Subtype == Simple {
		write, read = writeRows, readRows
	}
	p := int(math.Round(math.Sqrt(float64(cfg.Ranks))))
	res := Result{Config: cfg, Verified: true}
	var runErr error
	note := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	sol := cfg.newSolution(p)

	w.Run(func() {
		start := w.Engine().Now()
		writeSnap := func(snap int, next func()) {
			write(f, sol.writes(snap), func(err error) {
				note(err)
				next()
			})
		}
		readSnap := func(snap int, next func()) {
			read(f, sol.reads(snap), func(bufs [][][]byte, err error) {
				note(err)
				if cfg.Verify && err == nil {
					if err := sol.verify(snap, bufs); err != nil {
						res.Verified = false
						note(err)
					}
				}
				next()
			})
		}
		cfg.eachSnapshot(writeSnap, func() {
			res.WriteBytes = cfg.TotalBytes()
			res.WriteTime = w.Engine().Now().Sub(start)
			start = w.Engine().Now()
			cfg.eachSnapshot(readSnap, func() {
				res.ReadBytes = cfg.TotalBytes()
				res.ReadTime = w.Engine().Now().Sub(start)
			})
		})
	})
	return res, runErr
}

// eachSnapshot runs step on every snapshot in order, each once the
// previous one has called next, then calls done.
func (c Config) eachSnapshot(step func(snap int, next func()), done func()) {
	var at func(snap int)
	at = func(snap int) {
		if snap == c.Snapshots() {
			done()
			return
		}
		step(snap, func() { at(snap + 1) })
	}
	at(0)
}

// verify checks every rank's read-back buffers against the snapshot's
// pattern.
func (s *solution) verify(snap int, bufs [][][]byte) error {
	for r, rows := range s.elems {
		for i := range rows {
			if !s.check(snap, r, i, bufs[r][i]) {
				return fmt.Errorf("btio: snapshot %d rank %d row %d mismatch", snap, r, i)
			}
		}
	}
	return nil
}
