package pager

import (
	"path/filepath"
	"testing"
)

func BenchmarkMemStoreReadWrite(b *testing.B) {
	s := NewMemStore()
	id, _ := s.Alloc()
	page := fillPage(0x5A)
	buf := make([]byte, PageSize)
	b.SetBytes(2 * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePage(id, page); err != nil {
			b.Fatal(err)
		}
		if err := s.ReadPage(id, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFileStoreReadWrite(b *testing.B) {
	s, err := CreateFileStore(filepath.Join(b.TempDir(), "bench.pages"))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	id, _ := s.Alloc()
	page := fillPage(0x5A)
	buf := make([]byte, PageSize)
	b.SetBytes(2 * PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WritePage(id, page); err != nil {
			b.Fatal(err)
		}
		if err := s.ReadPage(id, buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBufferPoolHit(b *testing.B) {
	s := NewMemStore()
	bp := NewBufferPool(s, 64)
	var ids []PageID
	for i := 0; i < 32; i++ {
		id, _ := bp.Alloc()
		if err := bp.Put(id, fillPage(byte(i))); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := bp.Lend(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
}

// BenchmarkBufferPoolMiss is a steady-state miss: a cyclic scan of twice
// the pool's capacity, so every Lend evicts the LRU frame and reads its
// page into it.
func BenchmarkBufferPoolMiss(b *testing.B) {
	s := NewMemStore()
	bp := NewBufferPool(s, 64)
	var ids []PageID
	for i := 0; i < 128; i++ {
		id, _ := s.Alloc()
		if err := s.WritePage(id, fillPage(byte(i))); err != nil {
			b.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		l, err := bp.Lend(id)
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
	b.ReportAllocs()
	b.SetBytes(PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := bp.Lend(ids[i%len(ids)])
		if err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
}
