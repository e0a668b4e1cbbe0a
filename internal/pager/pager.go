// Package pager is the disk substrate under the index: a store of fixed
// 4 KiB pages (the page size of the paper's experiments, Section 5), with
// a file-backed and an in-memory implementation plus an LRU buffer pool.
//
// The paper's cost metric is disk accesses. The index layer counts one
// access per node fetched; the pager additionally distinguishes true
// store reads from buffer hits, which the server-side-buffering ablation
// uses (the paper argues in Section 4 that an LRU buffer at the server
// does not substitute for dynamic query processing).
package pager

import (
	"errors"
	"fmt"
)

// PageSize is the fixed size of every page in bytes.
const PageSize = 4096

// PageID identifies a page within a store. IDs are dense, starting at 0
// for the first data page.
type PageID uint32

// InvalidPage is the sentinel "no page" value.
const InvalidPage PageID = 0xFFFFFFFF

// Errors returned by stores.
var (
	ErrPageOutOfRange = errors.New("pager: page id out of range")
	ErrPageFreed      = errors.New("pager: access to freed page")
	ErrBadPageData    = errors.New("pager: page buffer must be exactly PageSize bytes")
	ErrClosed         = errors.New("pager: store is closed")
)

// Store is a flat array of fixed-size pages with allocation. Stores must
// support concurrent ReadPage calls when no write (WritePage/Alloc/Free)
// is in flight; the index layer's reader–writer locking guarantees that
// writes run with exclusive access, so stores need no locking of their
// own.
type Store interface {
	// ReadPage copies the page's contents into buf (len PageSize).
	ReadPage(id PageID, buf []byte) error
	// WritePage replaces the page's contents with buf (len PageSize).
	WritePage(id PageID, buf []byte) error
	// Alloc returns a fresh (zeroed) page.
	Alloc() (PageID, error)
	// Free releases a page for reuse.
	Free(id PageID) error
	// NumPages reports the number of pages ever allocated and not freed.
	NumPages() int
	// Sync durably persists all written pages where applicable.
	Sync() error
	// Close releases resources; the store is unusable afterwards.
	Close() error
}

// MemStore is an in-memory Store. It is the default substrate for the
// experiments: page fetches are counted, not timed, so memory is a
// faithful stand-in for disk under the paper's cost model.
type MemStore struct {
	pages    [][]byte
	free     []PageID
	freeSet  map[PageID]bool
	closed   bool
	allocCnt int
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{freeSet: make(map[PageID]bool)}
}

func (m *MemStore) check(id PageID) error {
	if m.closed {
		return ErrClosed
	}
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, len(m.pages))
	}
	if m.freeSet[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	return nil
}

// ReadPage implements Store.
func (m *MemStore) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageData
	}
	if err := m.check(id); err != nil {
		return err
	}
	copy(buf, m.pages[id])
	return nil
}

// LendPage implements PageLender: the store's own copy of the page.
func (m *MemStore) LendPage(id PageID) ([]byte, error) {
	if err := m.check(id); err != nil {
		return nil, err
	}
	return m.pages[id], nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return ErrBadPageData
	}
	if err := m.check(id); err != nil {
		return err
	}
	copy(m.pages[id], buf)
	return nil
}

// Alloc implements Store.
func (m *MemStore) Alloc() (PageID, error) {
	if m.closed {
		return InvalidPage, ErrClosed
	}
	m.allocCnt++
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		delete(m.freeSet, id)
		clear(m.pages[id])
		return id, nil
	}
	if len(m.pages) >= int(InvalidPage) {
		return InvalidPage, errors.New("pager: store full")
	}
	id := PageID(len(m.pages))
	m.pages = append(m.pages, make([]byte, PageSize))
	return id, nil
}

// Free implements Store.
func (m *MemStore) Free(id PageID) error {
	if err := m.check(id); err != nil {
		return err
	}
	m.free = append(m.free, id)
	m.freeSet[id] = true
	return nil
}

// NumPages implements Store.
func (m *MemStore) NumPages() int { return len(m.pages) - len(m.free) }

// Sync implements Store (no-op in memory).
func (m *MemStore) Sync() error {
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Close implements Store.
func (m *MemStore) Close() error {
	m.closed = true
	m.pages = nil
	return nil
}

// WritePageTorn persists only the first n bytes of the page, simulating
// a torn write (a fault-injection hook; the file-backed analogue also
// tears the checksum trailer).
func (m *MemStore) WritePageTorn(id PageID, buf []byte, n int) error {
	if len(buf) != PageSize {
		return ErrBadPageData
	}
	if err := m.check(id); err != nil {
		return err
	}
	if n < 0 {
		n = 0
	}
	if n > PageSize {
		n = PageSize
	}
	copy(m.pages[id][:n], buf[:n])
	return nil
}

// FlipBit flips one bit of the stored page in place (a fault-injection
// hook).
func (m *MemStore) FlipBit(id PageID, bit int) error {
	if err := m.check(id); err != nil {
		return err
	}
	if bit < 0 {
		bit = -bit
	}
	bit %= PageSize * 8
	m.pages[id][bit/8] ^= 1 << (bit % 8)
	return nil
}
