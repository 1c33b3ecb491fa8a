// Package device models the storage hardware under the simulated file
// servers: mechanical disks (HServers) and flash SSDs (SServers).
//
// A Device is a service-time model: how long one contiguous read or
// write of a given size takes, mirroring the storage parameters of the
// paper's Table I (uniform startup time on [αmin, αmax], linear transfer
// time β per byte, with separate read/write profiles and a
// garbage-collection penalty for SSD writes). Store is the sparse
// in-memory byte store the file servers keep file data in, so the
// parallel file system built on top moves real bytes and end-to-end data
// integrity can be verified.
//
// The service-time model is deliberately richer than the analytical cost
// model HARL optimizes with (sequential-access startup discounts, GC
// pauses), so the optimizer faces the same model/reality gap it faces on
// physical hardware.
package device

import (
	"fmt"
	"math/rand"

	"harl/internal/sim"
)

// Op distinguishes reads from writes; SSDs serve them asymmetrically.
type Op int

// Operations.
const (
	Read Op = iota
	Write
)

// String returns "read" or "write".
func (o Op) String() string {
	if o == Read {
		return "read"
	}
	return "write"
}

// Kind labels the two server classes of a hybrid PFS.
type Kind int

// Device kinds.
const (
	HDD Kind = iota
	SSD
)

// String returns "HDD" or "SSD".
func (k Kind) String() string {
	if k == HDD {
		return "HDD"
	}
	return "SSD"
}

// Profile holds the service-time parameters of one device class. The
// fields correspond one-to-one with the storage parameters of Table I in
// the paper; rates are in bytes per second of the transfer term β (β is
// the reciprocal rate).
type Profile struct {
	Name string
	Kind Kind

	// Read path: startup uniform on [ReadStartupMin, ReadStartupMax],
	// then Size/ReadRate of transfer.
	ReadStartupMin sim.Duration
	ReadStartupMax sim.Duration
	ReadRate       float64

	// Write path, likewise. For HDDs the paper uses a single profile for
	// both directions; the constructors below mirror that.
	WriteStartupMin sim.Duration
	WriteStartupMax sim.Duration
	WriteRate       float64

	// SeqDiscount scales the startup cost when an access continues
	// exactly where the previous one ended (no seek on HDD, open page on
	// SSD). 1.0 disables the discount. This term exists only in the
	// simulator, not in HARL's cost model.
	SeqDiscount float64

	// GCEveryBytes/GCPause model SSD garbage collection and wear
	// leveling: after every GCEveryBytes of writes the device stalls for
	// GCPause. Zero disables the model (always for HDDs).
	GCEveryBytes int64
	GCPause      sim.Duration

	// Capacity in bytes of the simulated medium.
	Capacity int64
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	switch {
	case p.ReadStartupMin < 0 || p.ReadStartupMax < p.ReadStartupMin:
		return fmt.Errorf("device %q: bad read startup range [%v,%v]", p.Name, p.ReadStartupMin, p.ReadStartupMax)
	case p.WriteStartupMin < 0 || p.WriteStartupMax < p.WriteStartupMin:
		return fmt.Errorf("device %q: bad write startup range [%v,%v]", p.Name, p.WriteStartupMin, p.WriteStartupMax)
	case p.ReadRate <= 0 || p.WriteRate <= 0:
		return fmt.Errorf("device %q: rates must be positive", p.Name)
	case p.SeqDiscount < 0 || p.SeqDiscount > 1:
		return fmt.Errorf("device %q: SeqDiscount %v outside [0,1]", p.Name, p.SeqDiscount)
	case p.GCEveryBytes < 0 || p.GCPause < 0:
		return fmt.Errorf("device %q: negative GC parameters", p.Name)
	case p.Capacity <= 0:
		return fmt.Errorf("device %q: capacity must be positive", p.Name)
	}
	return nil
}

// DefaultHDD is the HServer disk profile: a 7.2k-RPM SATA drive behind an
// OrangeFS-like server process, with α and β the *effective* values the
// paper's calibration (Section III-G) measures against the running server
// under the striped workload, not raw platter physics. The server's
// request coalescing, elevator scheduling and readahead amortize head
// movement across the concurrent sub-request stream, leaving a
// sub-millisecond effective startup — but the scattered access pattern
// keeps the sustained transfer rate far below the drive's sequential
// spec (~20 MB/s, typical for 2009-era SATA under concurrent random
// 32 KB-2 MB accesses). This regime — startup-light, transfer-slow — is
// what makes the paper's measured optima (e.g. {32 KB, 160 KB}) favour
// fine-grained, SSD-shifted striping; with multi-millisecond
// per-sub-request seeks those layouts could never win.
func DefaultHDD() Profile {
	return Profile{
		Name:            "hdd-250g",
		Kind:            HDD,
		ReadStartupMin:  300 * sim.Microsecond,
		ReadStartupMax:  700 * sim.Microsecond,
		ReadRate:        20 << 20,
		WriteStartupMin: 300 * sim.Microsecond,
		WriteStartupMax: 700 * sim.Microsecond,
		WriteRate:       19 << 20,
		SeqDiscount:     0.5,
		Capacity:        250 << 30,
	}
}

// DefaultSSD is the SServer profile: a PCI-E X4 flash card behind the same
// server software. Reads are faster than writes, and writes pay periodic
// garbage-collection stalls, matching the asymmetry Table I encodes with
// separate (α, β) pairs for SServer reads and writes. The resulting
// HServer:SServer service-time ratio at 64 KB accesses is ~3.5x, the gap
// Figure 1(a) reports.
func DefaultSSD() Profile {
	return Profile{
		Name:            "ssd-pcie-100g",
		Kind:            SSD,
		ReadStartupMin:  200 * sim.Microsecond,
		ReadStartupMax:  400 * sim.Microsecond,
		ReadRate:        200 << 20,
		WriteStartupMin: 200 * sim.Microsecond,
		WriteStartupMax: 400 * sim.Microsecond,
		WriteRate:       180 << 20,
		SeqDiscount:     0.8,
		GCEveryBytes:    256 << 20,
		GCPause:         2 * sim.Millisecond,
		Capacity:        100 << 30,
	}
}

// DefaultSATASSD is a first-generation SATA flash drive: much quicker to
// start than a disk but transfer-limited well below the PCI-E card.
// Three-tier testbeds (the paper's future-work extension) mix it with
// DefaultHDD and DefaultSSD to create a hybrid with three distinct
// performance profiles.
func DefaultSATASSD() Profile {
	return Profile{
		Name:            "ssd-sata-60g",
		Kind:            SSD,
		ReadStartupMin:  200 * sim.Microsecond,
		ReadStartupMax:  450 * sim.Microsecond,
		ReadRate:        60 << 20,
		WriteStartupMin: 250 * sim.Microsecond,
		WriteStartupMax: 500 * sim.Microsecond,
		WriteRate:       45 << 20,
		SeqDiscount:     0.8,
		GCEveryBytes:    128 << 20,
		GCPause:         3 * sim.Millisecond,
		Capacity:        60 << 30,
	}
}

// Device is one simulated drive's service-time model. It is driven from
// a single simulation goroutine and is not safe for concurrent use.
type Device struct {
	prof Profile

	lastEnd      [2]int64 // last byte touched + 1, per Op, for SeqDiscount
	writtenSince int64    // bytes written since the last GC pause

	// Accounting.
	Reads, Writes           uint64
	BytesRead, BytesWritten int64
	GCPauses                uint64
}

// New creates a device from a validated profile.
func New(prof Profile) (*Device, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	return &Device{prof: prof, lastEnd: [2]int64{-1, -1}}, nil
}

// MustNew is New for known-good profiles; it panics on error.
func MustNew(prof Profile) *Device {
	d, err := New(prof)
	if err != nil {
		panic(err)
	}
	return d
}

// Profile returns the device's parameters.
func (d *Device) Profile() Profile { return d.prof }

// Kind returns the device class.
func (d *Device) Kind() Kind { return d.prof.Kind }

// ServiceTime draws the time to serve one contiguous access of size bytes
// at offset, advancing the device's sequentiality and GC state. rng must
// be the owning simulation's deterministic source.
func (d *Device) ServiceTime(op Op, offset, size int64, rng *rand.Rand) sim.Duration {
	if offset < 0 || size < 0 {
		panic(fmt.Sprintf("device %q: negative access %d+%d", d.prof.Name, offset, size))
	}
	var lo, hi sim.Duration
	var rate float64
	if op == Read {
		lo, hi, rate = d.prof.ReadStartupMin, d.prof.ReadStartupMax, d.prof.ReadRate
		d.Reads++
		d.BytesRead += size
	} else {
		lo, hi, rate = d.prof.WriteStartupMin, d.prof.WriteStartupMax, d.prof.WriteRate
		d.Writes++
		d.BytesWritten += size
	}

	startup := lo
	if hi > lo {
		startup = lo + sim.Duration(rng.Int63n(int64(hi-lo)+1))
	}
	if d.lastEnd[op] == offset {
		startup = sim.Duration(float64(startup) * (1 - d.prof.SeqDiscount))
	}
	d.lastEnd[op] = offset + size

	total := startup + sim.BytesDuration(size, rate)

	if op == Write && d.prof.GCEveryBytes > 0 {
		d.writtenSince += size
		for d.writtenSince >= d.prof.GCEveryBytes {
			d.writtenSince -= d.prof.GCEveryBytes
			total += d.prof.GCPause
			d.GCPauses++
		}
	}
	return total
}
