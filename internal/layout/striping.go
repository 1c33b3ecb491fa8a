// Package layout implements the striping geometry of a hybrid parallel
// file system: how a logical byte range of a file maps onto the HDD
// servers (HServers) and SSD servers (SServers) that store it.
//
// The traditional scheme stripes a file round-robin with one fixed stripe
// size. The schemes this repository studies generalize that to a
// two-dimensional configuration (paper Fig. 2): within each striping round
// the first M stripes of size H land on the M HServers and the next N
// stripes of size S land on the N SServers. Fixed-size striping is the
// special case H == S; H == 0 or S == 0 places data on one server class
// only (the paper's extreme configurations, e.g. the {0 KB, 64 KB} optimum
// of Fig. 9).
//
// Tiered generalizes the configuration to any number of server classes
// and is the one implementation of the geometry; Striping is its two-tier
// view. The package is shared by the simulated PFS (which needs exact
// sub-request lists, Map) and by HARL's analytical cost model (which
// needs the per-class sub-request maxima and server counts of Section
// III-D, Geometry.Distribute).
package layout

import "fmt"

// Mapper is the placement contract a file layout provides to the file
// system: where every logical byte lives. Striping (two-tier) and Tiered
// (k-tier) both implement it.
type Mapper interface {
	// Validate reports whether the layout can hold data.
	Validate() error
	// Servers returns the number of data servers the layout spans.
	Servers() int
	// Locate maps a logical offset to (server index, server-local offset).
	Locate(off int64) (server int, local int64)
	// StripeOf returns the stripe size used by a server index.
	StripeOf(server int) int64
	// Map splits a logical range into per-server sub-requests.
	Map(off, size int64) []SubRequest
}

// Striping is one two-dimensional stripe configuration over a hybrid
// server group: M HServers with stripe size H followed by N SServers with
// stripe size S, repeated round-robin. Servers are numbered 0..M-1
// (HServers) then M..M+N-1 (SServers).
type Striping struct {
	M int   // number of HServers
	N int   // number of SServers
	H int64 // stripe size on each HServer, bytes (0 = skip HServers)
	S int64 // stripe size on each SServer, bytes (0 = skip SServers)
}

// Fixed returns the traditional one-dimensional layout: the same stripe
// size on every server.
func Fixed(m, n int, stripe int64) Striping {
	return Striping{M: m, N: n, H: stripe, S: stripe}
}

// TieredOf converts a two-tier Striping to the general form: the M
// HServers are tier 0 and the N SServers tier 1.
func TieredOf(st Striping) Tiered {
	return Tiered{Counts: []int{st.M, st.N}, Stripes: []int64{st.H, st.S}}
}

// The geometry methods below view st as TieredOf(st). The k-tier methods
// never retain their receiver, so the view's two slices stay on the stack
// and none of these calls allocates beyond Map's result.

// Validate reports whether the configuration can hold data: its round
// size must be positive and fit in an int64.
func (st Striping) Validate() error { return TieredOf(st).Validate() }

// RoundSize returns the bytes in one full striping round,
// S = M*H + N*S in the paper's notation.
func (st Striping) RoundSize() int64 { return TieredOf(st).RoundSize() }

// Locate maps a logical file offset to (server, local offset); see
// Tiered.Locate.
func (st Striping) Locate(off int64) (server int, local int64) { return TieredOf(st).Locate(off) }

// StripeOf returns the stripe size used by the given server index.
func (st Striping) StripeOf(server int) int64 { return TieredOf(st).StripeOf(server) }

// Map splits the logical byte range [off, off+size) into per-server
// sub-requests; see Tiered.Map.
func (st Striping) Map(off, size int64) []SubRequest { return TieredOf(st).Map(off, size) }

// Servers returns the total server count M+N.
func (st Striping) Servers() int { return st.M + st.N }

// String renders the configuration like the paper's figures, e.g.
// "64K-64K x(6H+2S)".
func (st Striping) String() string {
	return fmt.Sprintf("%s-%s x(%dH+%dS)", kb(st.H), kb(st.S), st.M, st.N)
}

func kb(b int64) string {
	if b%1024 == 0 {
		return fmt.Sprintf("%dK", b/1024)
	}
	return fmt.Sprintf("%dB", b)
}

// SubRequest is the portion of a file request served by one server: a
// contiguous range of the server's backing object.
type SubRequest struct {
	Server int   // global server index (0..M+N-1)
	Local  int64 // offset within the server's backing object
	Size   int64 // bytes
}
