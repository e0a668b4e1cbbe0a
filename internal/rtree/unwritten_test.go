package rtree

import (
	"fmt"
	"sync"

	"dynq/internal/pager"
)

// unwrittenStore is a MemStore that refuses to read a page between its
// Alloc and its first WritePage. The Store contract leaves such a page's
// contents undefined (FileStore writes nothing at Alloc), so the tree
// must write every page it allocates whole before it reads it. The write
// path's tests run their trees over it, bufferless and behind a pool.
type unwrittenStore struct {
	*pager.MemStore
	mu        sync.Mutex // a pool writes evicted frames back under the tree's read lock
	unwritten map[pager.PageID]bool
}

func newUnwrittenStore(s *pager.MemStore) *unwrittenStore {
	return &unwrittenStore{MemStore: s, unwritten: map[pager.PageID]bool{}}
}

// mark records id as unwritten or written; check fails on an unwritten id.
func (s *unwrittenStore) mark(id pager.PageID, unwritten bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if unwritten {
		s.unwritten[id] = true
	} else {
		delete(s.unwritten, id)
	}
}

func (s *unwrittenStore) check(id pager.PageID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unwritten[id] {
		return fmt.Errorf("page %d read between its Alloc and its first write", id)
	}
	return nil
}

func (s *unwrittenStore) Alloc() (pager.PageID, error) {
	id, err := s.MemStore.Alloc()
	if err == nil {
		s.mark(id, true)
	}
	return id, err
}

func (s *unwrittenStore) WritePage(id pager.PageID, buf []byte) error {
	s.mark(id, false)
	return s.MemStore.WritePage(id, buf)
}

func (s *unwrittenStore) Free(id pager.PageID) error {
	s.mark(id, false)
	return s.MemStore.Free(id)
}

func (s *unwrittenStore) ReadPage(id pager.PageID, buf []byte) error {
	if err := s.check(id); err != nil {
		return err
	}
	return s.MemStore.ReadPage(id, buf)
}

func (s *unwrittenStore) LendPage(id pager.PageID) ([]byte, error) {
	if err := s.check(id); err != nil {
		return nil, err
	}
	return s.MemStore.LendPage(id)
}
