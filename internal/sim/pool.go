package sim

// Pool is a capped free list of *T records, the one recycling primitive
// behind every hot-path record in the simulator: engine events, and the
// pfs disk passes, sub-requests and client operations, and the netsim
// transfers. The owner resets a record before Put, so a pooled record
// retains no continuation or payload. Records beyond Cap are dropped to
// the garbage collector, so a burst that once had many records in
// flight does not pin that memory for the rest of the run. The zero
// Pool drops every record; owners set Cap from their own constant.
type Pool[T any] struct {
	Cap   int
	free  []*T
	hw    int
	drops uint64
}

// Get returns a recycled record, or a new one when none is pooled.
func (p *Pool[T]) Get() *T {
	n := len(p.free) - 1
	if n < 0 {
		return new(T)
	}
	x := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	return x
}

// Put pools a record the owner has already reset, or drops it once Cap
// records are held.
func (p *Pool[T]) Put(x *T) {
	if len(p.free) >= p.Cap {
		p.drops++
		return
	}
	p.free = append(p.free, x)
	if len(p.free) > p.hw {
		p.hw = len(p.free)
	}
}

// Stats reports how many records are pooled, the high-water mark, and
// how many records were dropped at the cap.
func (p *Pool[T]) Stats() (pooled, highWater int, drops uint64) {
	return len(p.free), p.hw, p.drops
}
