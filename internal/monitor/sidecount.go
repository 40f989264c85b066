package monitor

import "sync"

// SideCounts holds, per lock, the nesting levels past what its lock
// word's count field can encode: a fat monitor's levels past maxCount,
// and ThinLock-compact's past the thin count field. Only a lock's owner
// reads or changes its entry, and a grant that makes a thread the
// owner; the mutex guards the map itself. The map is made on first use,
// so a program that never nests that deep holds none, and an entry
// exists only while its lock is held that deep.
//
// The mutex is a leaf: no method takes another lock, so a handoff's
// grant may call Set with the lot's bucket locked. Nothing may take a
// bucket lock, or any other lock, while it holds this one.
type SideCounts[K comparable] struct {
	mu sync.Mutex
	m  map[K]uint32
}

// Deeper adds one level to k's side count.
func (s *SideCounts[K]) Deeper(k K) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]uint32)
	}
	s.m[k]++
	s.mu.Unlock()
}

// Shallower removes one level from k's side count, reporting whether
// there was one.
func (s *SideCounts[K]) Shallower(k K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[k]
	switch n {
	case 0:
		return false
	case 1:
		delete(s.m, k)
	default:
		s.m[k] = n - 1
	}
	return true
}

// Take removes k's side count and returns it.
func (s *SideCounts[K]) Take(k K) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.m[k]
	delete(s.m, k)
	return n
}

// Set sets k's side count, which must be 0, to n.
func (s *SideCounts[K]) Set(k K, n uint32) {
	if n == 0 {
		return
	}
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]uint32)
	}
	s.m[k] = n
	s.mu.Unlock()
}

// Get returns k's side count.
func (s *SideCounts[K]) Get(k K) uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

// Len returns how many locks have a side count.
func (s *SideCounts[K]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
