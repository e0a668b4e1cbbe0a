package pager

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sync"
)

// File layout (format v2, magic "DYNQPG02"):
//
//	[slot 0: header, PageSize bytes][slot 1: header, PageSize bytes]
//	[page 0: PageSize data + 16-byte trailer][page 1: ...]...
//
// Each header slot:
//
//	offset 0   8 bytes  magic "DYNQPG02"
//	offset 8   8 bytes  commit sequence number (little endian)
//	offset 16  4 bytes  number of data pages (in use + free)
//	offset 20  8 bytes  unused, written as two InvalidPage words (older
//	                    writers kept a free-chain head and a root id here)
//	offset 28  2 bytes  aux length
//	offset 32  ...      aux bytes (up to MaxAux)
//	offset PageSize-4   CRC32C over bytes [0, PageSize-4)
//
// Commits are atomic: a commit writes the header to the slot NOT holding
// the current committed state (slot seq%2 for the new seq) and fsyncs.
// If the write tears, the other slot still holds the previous committed
// header; Open picks the valid slot with the highest sequence number.
//
// Allocation state (count, free pages, aux) lives in memory between
// commits; Sync and Close commit the count and aux. Data pages are written
// in place with a checksum + epoch trailer (see checksum.go); a page
// written after commit S carries epoch S+1, so recovery can tell whether
// any part of the committed snapshot was overwritten by an unfinished
// flush.
//
// Which pages are free is not stored: a free page is one the committed
// tree does not reach. Recovery's tree walk finds them and hands them to
// Reuse. Alloc and Free keep the list in memory and write nothing, so
// freeing or reusing a page never overwrites what the committed tree
// holds; only WritePage writes a data page.
const fileMagic = "DYNQPG02"

// fileMagicV1 is the pre-checksum single-header format, recognized only
// to produce a helpful error.
const fileMagicV1 = "DYNQPG01"

const (
	hdrMagicOff  = 0
	hdrSeqOff    = 8
	hdrCountOff  = 16
	hdrUnusedOff = 20
	hdrAuxLenOff = 28
	hdrAuxOff    = 32
	hdrCRCOff    = PageSize - 4

	headerSlots = 2
	dataStart   = headerSlots * PageSize
)

// MaxAux is the caller-metadata capacity of a header slot.
const MaxAux = 256

// FileStore is a Store persisted in a single file with per-page checksums
// and atomic dual-slot header commits. It exists so indexes can be built
// once (cmd/dqload) and reopened by later runs; the experiment harness
// itself defaults to MemStore.
//
// ReadPage and WritePage may each run concurrently with themselves and
// each other on different pages: a BufferPool reads a missed page outside
// its segment lock (and with no lock at all when it is a pass-through),
// and writes an evicted dirty frame back under one segment's lock only,
// all on behalf of queries that share the index's read lock. The physical
// record (page + trailer) is therefore assembled in a per-call buffer from
// recScratch, never in a field of the store. Allocation state (Alloc, Free,
// SetAux, Sync) is the writer's, under the index's exclusive lock.
type FileStore struct {
	f         *os.File
	seq       uint64   // last committed header sequence number
	count     uint32   // data pages in the file (in use + free)
	free      []PageID // pages to reuse, the next one last
	aux       []byte   // caller metadata (see SetAux)
	bothValid bool     // both header slots decoded cleanly at open
	closed    bool
}

// recScratch recycles physical-record buffers across calls and stores.
var recScratch = sync.Pool{New: func() any { return new(recBuf) }}

// CreateFileStore creates (truncating) a page file at path.
func CreateFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: create %s: %w", path, err)
	}
	fs := &FileStore{f: f, bothValid: true}
	// Write the initial committed header to both slots so either survives
	// a torn first commit.
	hdr := fs.encodeHeader(1)
	for slot := 0; slot < headerSlots; slot++ {
		if _, err := f.WriteAt(hdr, int64(slot)*PageSize); err != nil {
			f.Close()
			return nil, fmt.Errorf("pager: init header of %s: %w", path, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("pager: sync %s: %w", path, err)
	}
	fs.seq = 1
	return fs, nil
}

// OpenFileStore opens an existing page file, picking the newest valid
// header slot. A file where neither slot decodes returns an error
// wrapping ErrCorruptHeader (or a descriptive error for foreign or
// old-format files).
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	fs, err := openHeader(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

func openHeader(f *os.File, path string) (*FileStore, error) {
	var (
		best      *FileStore
		valid     int
		sawOldFmt bool
		sawMagic  bool
	)
	buf := make([]byte, PageSize)
	for slot := 0; slot < headerSlots; slot++ {
		n, err := f.ReadAt(buf, int64(slot)*PageSize)
		if err != nil && n != PageSize {
			continue
		}
		if bytes.Equal(buf[hdrMagicOff:hdrMagicOff+8], []byte(fileMagicV1)) {
			sawOldFmt = true
			continue
		}
		if !bytes.Equal(buf[hdrMagicOff:hdrMagicOff+8], []byte(fileMagic)) {
			continue
		}
		sawMagic = true
		cand, ok := decodeHeader(f, buf)
		if !ok {
			continue
		}
		valid++
		if best == nil || cand.seq > best.seq {
			best = cand
		}
	}
	switch {
	case best != nil:
		best.bothValid = valid == headerSlots
		return best, nil
	case sawOldFmt:
		return nil, fmt.Errorf("pager: %s uses the old unchecksummed format %q; rebuild it with dqload", path, fileMagicV1)
	case sawMagic:
		return nil, fmt.Errorf("pager: %s: %w (both slots failed verification)", path, ErrCorruptHeader)
	default:
		return nil, fmt.Errorf("pager: %s is not a dynq page file", path)
	}
}

func decodeHeader(f *os.File, buf []byte) (*FileStore, bool) {
	if crc32Of(buf[:hdrCRCOff]) != binary.LittleEndian.Uint32(buf[hdrCRCOff:]) {
		return nil, false
	}
	auxLen := int(binary.LittleEndian.Uint16(buf[hdrAuxLenOff:]))
	if auxLen > MaxAux {
		return nil, false
	}
	return &FileStore{
		f:     f,
		seq:   binary.LittleEndian.Uint64(buf[hdrSeqOff:]),
		count: binary.LittleEndian.Uint32(buf[hdrCountOff:]),
		aux:   append([]byte(nil), buf[hdrAuxOff:hdrAuxOff+auxLen]...),
	}, true
}

// encodeHeader renders the current in-memory state as a header slot image
// stamped with sequence number seq.
func (fs *FileStore) encodeHeader(seq uint64) []byte {
	hdr := make([]byte, PageSize)
	copy(hdr[hdrMagicOff:], fileMagic)
	binary.LittleEndian.PutUint64(hdr[hdrSeqOff:], seq)
	binary.LittleEndian.PutUint32(hdr[hdrCountOff:], fs.count)
	binary.LittleEndian.PutUint32(hdr[hdrUnusedOff:], uint32(InvalidPage))
	binary.LittleEndian.PutUint32(hdr[hdrUnusedOff+4:], uint32(InvalidPage))
	binary.LittleEndian.PutUint16(hdr[hdrAuxLenOff:], uint16(len(fs.aux)))
	copy(hdr[hdrAuxOff:], fs.aux)
	binary.LittleEndian.PutUint32(hdr[hdrCRCOff:], crc32Of(hdr[:hdrCRCOff]))
	return hdr
}

// commit durably publishes the in-memory allocation state: it writes the
// next header to the slot not holding the committed one, then fsyncs.
// Data pages must already be synced by the caller (see Sync).
func (fs *FileStore) commit() error {
	next := fs.seq + 1
	slot := int64(next % headerSlots)
	if _, err := fs.f.WriteAt(fs.encodeHeader(next), slot*PageSize); err != nil {
		return fmt.Errorf("pager: write header slot %d: %w", slot, err)
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("pager: sync header: %w", err)
	}
	fs.seq = next
	return nil
}

func (fs *FileStore) offset(id PageID) int64 {
	return dataStart + int64(id)*physPageSize
}

func (fs *FileStore) check(id PageID) error {
	if fs.closed {
		return ErrClosed
	}
	if uint32(id) >= fs.count {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, fs.count)
	}
	return nil
}

// writeEpoch is the epoch stamped on pages written now: one past the
// committed sequence number, so recovery can detect post-commit writes.
func (fs *FileStore) writeEpoch() uint64 { return fs.seq + 1 }

// ReadPage implements Store. A page whose trailer checksum does not match
// its contents returns a *CorruptPageError wrapping ErrCorruptPage.
func (fs *FileStore) ReadPage(id PageID, buf []byte) error {
	_, err := fs.ReadPageEpoch(id, buf)
	return err
}

// ReadPageEpoch is ReadPage plus the epoch recorded in the page trailer,
// for the recovery walk.
func (fs *FileStore) ReadPageEpoch(id PageID, buf []byte) (uint64, error) {
	if len(buf) != PageSize {
		return 0, ErrBadPageData
	}
	rec := recScratch.Get().(*recBuf)
	defer recScratch.Put(rec)
	epoch, err := fs.readRecord(id, rec)
	if err != nil {
		return 0, err
	}
	copy(buf, rec[:PageSize])
	return epoch, nil
}

// readRecord reads page id's physical record into rec and verifies it.
func (fs *FileStore) readRecord(id PageID, rec *recBuf) (uint64, error) {
	if err := fs.check(id); err != nil {
		return 0, err
	}
	if _, err := fs.f.ReadAt(rec[:physPageSize], fs.offset(id)); err != nil {
		return 0, err
	}
	return verifyRecord(rec, id)
}

// WritePage implements Store.
func (fs *FileStore) WritePage(id PageID, buf []byte) error {
	return fs.writePage(id, buf, physPageSize)
}

// writePage persists the first n bytes of buf's physical record.
func (fs *FileStore) writePage(id PageID, buf []byte, n int) error {
	if len(buf) != PageSize {
		return ErrBadPageData
	}
	rec := recScratch.Get().(*recBuf)
	defer recScratch.Put(rec)
	copy(rec[:], buf)
	return fs.writeRecord(id, rec, n)
}

// writeRecord seals the page in rec[:PageSize] with its trailer and
// persists the first n bytes of the record.
func (fs *FileStore) writeRecord(id PageID, rec *recBuf, n int) error {
	if err := fs.check(id); err != nil {
		return err
	}
	sealRecord(rec, id, fs.writeEpoch())
	_, err := fs.f.WriteAt(rec[:n], fs.offset(id))
	return err
}

// WritePageTorn persists only the first n bytes of the page's physical
// record (data + trailer), simulating a torn write. It is a hook for the
// fault injection that tests interpose; n is clamped to [0, physPageSize).
func (fs *FileStore) WritePageTorn(id PageID, buf []byte, n int) error {
	return fs.writePage(id, buf, min(max(n, 0), physPageSize-1))
}

// FlipBit flips one bit of the page's stored physical record in place,
// bypassing the checksum. It is a hook for the fault injection that tests
// interpose; bit is taken modulo the record size in bits.
func (fs *FileStore) FlipBit(id PageID, bit int) error {
	if err := fs.check(id); err != nil {
		return err
	}
	if bit < 0 {
		bit = -bit
	}
	bit %= physPageSize * 8
	var b [1]byte
	off := fs.offset(id) + int64(bit/8)
	if _, err := fs.f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 1 << (bit % 8)
	_, err := fs.f.WriteAt(b[:], off)
	return err
}

// Alloc implements Store: it reuses the page freed last, or extends the
// file by one page. It writes nothing; the caller writes the page whole
// before reading it. Allocation state is in memory until the next
// Sync/Close commit.
func (fs *FileStore) Alloc() (PageID, error) {
	if fs.closed {
		return InvalidPage, ErrClosed
	}
	if n := len(fs.free); n > 0 {
		id := fs.free[n-1]
		fs.free = fs.free[:n-1]
		return id, nil
	}
	id := PageID(fs.count)
	fs.count++
	return id, nil
}

// Free implements Store. It writes nothing: the page keeps its bytes,
// which the committed tree may still reach, until it is reused.
func (fs *FileStore) Free(id PageID) error {
	if err := fs.check(id); err != nil {
		return err
	}
	fs.free = append(fs.free, id)
	return nil
}

// Reuse makes ids the free pages, handed out by Alloc in the order given.
// Recovery passes the pages its walk of the committed tree did not reach.
func (fs *FileStore) Reuse(ids []PageID) {
	fs.free = slices.Clone(ids)
	slices.Reverse(fs.free)
}

// NumPages implements Store. Freed pages remain counted until reused; the
// file does not shrink.
func (fs *FileStore) NumPages() int { return int(fs.count) }

// CommittedSeq returns the sequence number of the last committed header.
func (fs *FileStore) CommittedSeq() uint64 { return fs.seq }

// VerifyHeader re-reads the committed header slot from disk and checks
// it still decodes to the committed sequence — the post-recovery sanity
// check the maintenance probe runs before clearing degraded mode, so a
// header torn by the failure burst that tripped read-only is caught
// before writes resume.
func (fs *FileStore) VerifyHeader() error {
	if fs.closed {
		return ErrClosed
	}
	buf := make([]byte, PageSize)
	slot := int64(fs.seq % headerSlots)
	if n, err := fs.f.ReadAt(buf, slot*PageSize); err != nil && n != PageSize {
		return fmt.Errorf("pager: reread header slot %d: %w", slot, err)
	}
	if !bytes.Equal(buf[hdrMagicOff:hdrMagicOff+8], []byte(fileMagic)) {
		return fmt.Errorf("pager: header slot %d: %w (bad magic)", slot, ErrCorruptHeader)
	}
	cand, ok := decodeHeader(fs.f, buf)
	if !ok {
		return fmt.Errorf("pager: header slot %d: %w", slot, ErrCorruptHeader)
	}
	if cand.seq != fs.seq {
		return fmt.Errorf("pager: header slot %d holds seq %d, committed state is %d: %w",
			slot, cand.seq, fs.seq, ErrCorruptHeader)
	}
	return nil
}

// BothHeaderSlotsValid reports whether both header slots decoded cleanly
// when the store was opened (false after recovering from a torn header
// commit; the next Sync repairs the stale slot).
func (fs *FileStore) BothHeaderSlotsValid() bool { return fs.bothValid }

// SetAux stages up to MaxAux bytes of caller metadata (e.g. index shape)
// for the next header commit.
func (fs *FileStore) SetAux(data []byte) error {
	if fs.closed {
		return ErrClosed
	}
	if len(data) > MaxAux {
		return fmt.Errorf("pager: aux data %d bytes exceeds %d", len(data), MaxAux)
	}
	fs.aux = append(fs.aux[:0], data...)
	return nil
}

// Aux returns the caller metadata from the last committed or staged
// header (nil if none).
func (fs *FileStore) Aux() []byte { return append([]byte(nil), fs.aux...) }

// Sync implements Store: it fsyncs the data pages, then atomically
// commits the current allocation state and metadata by writing the
// alternate header slot and fsyncing again. If the process dies between
// the two steps the previous header still describes a consistent file.
func (fs *FileStore) Sync() error {
	if fs.closed {
		return ErrClosed
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("pager: sync data: %w", err)
	}
	return fs.commit()
}

// Close implements Store: it commits (as Sync) and closes the file.
func (fs *FileStore) Close() error {
	if fs.closed {
		return nil
	}
	if err := fs.Sync(); err != nil {
		fs.closed = true
		fs.f.Close()
		return err
	}
	fs.closed = true
	return fs.f.Close()
}

// Crash abandons the store without committing, simulating a process
// crash: buffered state (allocations, aux) staged since the last
// Sync is lost. Test hook.
func (fs *FileStore) Crash() error {
	if fs.closed {
		return nil
	}
	fs.closed = true
	return fs.f.Close()
}
