// Package trace is the IOSIG stand-in: it collects, stores and analyzes
// the run-time I/O access information HARL's analysis phase consumes
// (Section III-B of the paper).
//
// A trace is a sequence of records, one per file request, carrying exactly
// the fields the paper lists: process ID, MPI rank, file descriptor,
// operation type, offset, request size, and timestamps. The package
// provides a collector for instrumented runs, a line-oriented text codec
// for trace files, offset sorting (the collector sorts requests in
// ascending offset order to feed the region-division algorithm), and
// workload summaries.
package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"

	"harl/internal/device"
	"harl/internal/sim"
	"harl/internal/textfmt"
)

// Record is one traced file request.
type Record struct {
	PID    int       // operating-system process id
	Rank   int       // MPI rank
	FD     int       // file descriptor
	Op     device.Op // read or write
	Offset int64     // file offset, bytes
	Size   int64     // request size, bytes
	Start  sim.Time  // operation begin timestamp
	End    sim.Time  // operation end timestamp
}

// Validate reports whether the record is well-formed.
func (r Record) Validate() error {
	switch {
	case r.Offset < 0:
		return fmt.Errorf("trace: negative offset %d", r.Offset)
	case r.Size <= 0:
		return fmt.Errorf("trace: non-positive size %d", r.Size)
	case r.Offset > math.MaxInt64-r.Size:
		return fmt.Errorf("trace: range %d+%d overflows int64", r.Offset, r.Size)
	case r.End < r.Start:
		return fmt.Errorf("trace: end %v before start %v", r.End, r.Start)
	case r.Op != device.Read && r.Op != device.Write:
		return fmt.Errorf("trace: unknown op %d", r.Op)
	}
	return nil
}

// Trace is an ordered collection of records.
type Trace struct {
	Records []Record
}

// Collector accumulates records during an instrumented run. It is the
// "trace collector" of the paper's Tracing Phase.
type Collector struct {
	trace Trace
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Record appends one request; malformed records panic, as they always
// indicate an instrumentation bug rather than bad input data.
func (c *Collector) Record(r Record) {
	if err := r.Validate(); err != nil {
		panic(err)
	}
	c.trace.Records = append(c.trace.Records, r)
}

// Trace returns the collected trace. The records are returned in capture
// order; call SortByOffset before feeding the region divider.
func (c *Collector) Trace() *Trace { return &c.trace }

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// SortByOffset sorts records by ascending offset (stable, so equal-offset
// requests keep capture order) — the order the region-division algorithm
// requires.
func (t *Trace) SortByOffset() {
	t.sortBy(func(r Record) int64 { return r.Offset })
}

// SortByStart sorts records by their begin timestamp (capture order for
// merged multi-process traces), stably.
func (t *Trace) SortByStart() {
	t.sortBy(func(r Record) int64 { return int64(r.Start) })
}

// sortBy stably sorts the records by ascending key, in place. It sorts
// (key, index) pairs, whose distinct indices make the order total and
// therefore stable, then gathers the records in that order: moving
// 16-byte pairs costs far less than swapping whole records through a
// reflection-based swapper.
func (t *Trace) sortBy(key func(Record) int64) {
	type keyed struct {
		key int64
		idx int
	}
	ks := make([]keyed, len(t.Records))
	for i, r := range t.Records {
		ks[i] = keyed{key(r), i}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	sorted := make([]Record, len(t.Records))
	for i, k := range ks {
		sorted[i] = t.Records[k.idx]
	}
	copy(t.Records, sorted)
}

// Filter returns a new trace containing the records keep accepts.
func (t *Trace) Filter(keep func(Record) bool) *Trace {
	out := &Trace{}
	for _, r := range t.Records {
		if keep(r) {
			out.Records = append(out.Records, r)
		}
	}
	return out
}

// Reads returns only the read records.
func (t *Trace) Reads() *Trace {
	return t.Filter(func(r Record) bool { return r.Op == device.Read })
}

// Writes returns only the write records.
func (t *Trace) Writes() *Trace {
	return t.Filter(func(r Record) bool { return r.Op == device.Write })
}

// Summary aggregates workload features of a trace.
type Summary struct {
	Requests    int
	Reads       int
	Writes      int
	Bytes       int64
	BytesRead   int64
	BytesWrite  int64
	MinSize     int64
	MaxSize     int64
	AvgSize     float64
	MaxOffset   int64 // highest byte touched + 1 (logical extent)
	DistinctFDs int
}

// Summarize computes a Summary; the zero Summary is returned for an empty
// trace.
func (t *Trace) Summarize() Summary {
	var s Summary
	if len(t.Records) == 0 {
		return s
	}
	s.MinSize = t.Records[0].Size
	fds := make(map[int]bool)
	for _, r := range t.Records {
		s.Requests++
		s.Bytes += r.Size
		if r.Op == device.Read {
			s.Reads++
			s.BytesRead += r.Size
		} else {
			s.Writes++
			s.BytesWrite += r.Size
		}
		if r.Size < s.MinSize {
			s.MinSize = r.Size
		}
		if r.Size > s.MaxSize {
			s.MaxSize = r.Size
		}
		if end := r.Offset + r.Size; end > s.MaxOffset {
			s.MaxOffset = end
		}
		fds[r.FD] = true
	}
	s.AvgSize = float64(s.Bytes) / float64(s.Requests)
	s.DistinctFDs = len(fds)
	return s
}

// traceHeader is the first line of the text format; bumping the version
// invalidates old files explicitly instead of misparsing them.
const traceHeader = "#iosig-trace v1"

// Write encodes the trace in the line-oriented text format:
// pid rank fd op offset size start end (whitespace-separated, one record
// per line, '#' comments ignored).
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, traceHeader); err != nil {
		return err
	}
	for _, r := range t.Records {
		op := "r"
		if r.Op == device.Write {
			op = "w"
		}
		if _, err := fmt.Fprintf(bw, "%d %d %d %s %d %d %d %d\n",
			r.PID, r.Rank, r.FD, op, r.Offset, r.Size, int64(r.Start), int64(r.End)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// traceFormat is the trace's on-disk text format.
var traceFormat = textfmt.Format{Name: "trace: IOSIG trace", Headers: []string{traceHeader}}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	t := &Trace{}
	err := traceFormat.Read(r, nil, func(fields []string) error {
		if len(fields) != 8 {
			return fmt.Errorf("want 8 fields, got %d", len(fields))
		}
		v, err := textfmt.Ints(append(fields[:3:3], fields[4:]...)) // all but the op
		if err != nil {
			return err
		}
		rec := Record{PID: int(v[0]), Rank: int(v[1]), FD: int(v[2]),
			Offset: v[3], Size: v[4], Start: sim.Time(v[5]), End: sim.Time(v[6])}
		switch fields[3] {
		case "r":
			rec.Op = device.Read
		case "w":
			rec.Op = device.Write
		default:
			return fmt.Errorf("unknown op %q", fields[3])
		}
		if err := rec.Validate(); err != nil {
			return err
		}
		t.Records = append(t.Records, rec)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
