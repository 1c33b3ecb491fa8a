package device

// Store is a sparse in-memory byte store addressed by absolute offset. It
// backs the simulated drives: file servers read and write real data so the
// whole stack can be checked end-to-end, while untouched ranges cost no
// memory. Pages are allocated lazily on first write; holes read as zeros,
// matching POSIX sparse-file semantics.
type Store struct {
	pages map[int64][]byte
}

// pageSize is the allocation granule. 64 KiB balances map overhead
// against waste for the stripe sizes this repository simulates (4 KiB-2 MiB).
const pageSize = 64 << 10

// NewStore returns an empty sparse store.
func NewStore() *Store {
	return &Store{pages: make(map[int64][]byte)}
}

// WriteAt stores p at offset, allocating pages as needed.
func (s *Store) WriteAt(p []byte, offset int64) {
	if offset < 0 {
		panic("device: negative store offset")
	}
	for len(p) > 0 {
		pageNo := offset / pageSize
		in := int(offset % pageSize)
		n := pageSize - in
		if n > len(p) {
			n = len(p)
		}
		page, ok := s.pages[pageNo]
		if !ok {
			page = make([]byte, pageSize)
			s.pages[pageNo] = page
		}
		copy(page[in:in+n], p[:n])
		p = p[n:]
		offset += int64(n)
	}
}

// ReadAt fills p from offset; unallocated ranges yield zeros.
func (s *Store) ReadAt(p []byte, offset int64) {
	if offset < 0 {
		panic("device: negative store offset")
	}
	for len(p) > 0 {
		pageNo := offset / pageSize
		in := int(offset % pageSize)
		n := pageSize - in
		if n > len(p) {
			n = len(p)
		}
		if page, ok := s.pages[pageNo]; ok {
			copy(p[:n], page[in:in+n])
		} else {
			clear(p[:n])
		}
		p = p[n:]
		offset += int64(n)
	}
}

// Bytes reports the allocated (not logical) size of the store.
func (s *Store) Bytes() int64 {
	return int64(len(s.pages)) * pageSize
}

// Pages reports how many pages are allocated.
func (s *Store) Pages() int { return len(s.pages) }

// CopyFrom overlays src's allocated pages onto s, cloning their
// contents; pages src never touched are left as they are. Sparse stays
// sparse: a phantom (all-hole) source copies nothing, and the untouched
// ranges of s keep reading back as before. This is the full-image
// transfer a replica resync installs.
func (s *Store) CopyFrom(src *Store) {
	for pageNo, page := range src.pages {
		dst, ok := s.pages[pageNo]
		if !ok {
			dst = make([]byte, pageSize)
			s.pages[pageNo] = dst
		}
		copy(dst, page)
	}
}
