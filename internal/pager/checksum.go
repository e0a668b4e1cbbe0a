package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strconv"
	"sync/atomic"

	"dynq/internal/obs"
)

// Every page persisted by FileStore carries a 16-byte trailer:
//
//	offset  size  field
//	0       4     CRC32C over data || pageID || epoch (little-endian)
//	4       8     epoch: the header sequence number the write belongs to
//	12      4     reserved (zero)
//
// The checksum covers the page ID so a block that lands at the wrong
// offset (a misdirected write) fails verification even if its bytes are
// internally consistent. The epoch lets Open-time recovery detect pages
// that were overwritten after the last committed header: any page
// reachable from a committed root must carry epoch <= the committed
// sequence number, otherwise part of the committed snapshot was clobbered
// by an unfinished flush.
const (
	pageTrailerSize = 16
	physPageSize    = PageSize + pageTrailerSize
)

// crcTable is the Castagnoli polynomial, hardware-accelerated on both
// amd64 and arm64.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptPage reports a page whose stored checksum does not match its
// contents. Errors returned by FileStore.ReadPage on a mismatch wrap it.
var ErrCorruptPage = errors.New("pager: page checksum mismatch")

// ErrCorruptHeader reports a file whose header slots are both unreadable.
var ErrCorruptHeader = errors.New("pager: no valid header slot")

// CorruptPageError carries the details of a checksum mismatch.
type CorruptPageError struct {
	ID   PageID
	Want uint32 // checksum stored in the trailer
	Got  uint32 // checksum recomputed from the page bytes
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("pager: page %d checksum mismatch (stored %08x, computed %08x)", e.ID, e.Want, e.Got)
}

func (e *CorruptPageError) Unwrap() error { return ErrCorruptPage }

// checksumFailures counts checksum mismatches observed by ReadPage across
// all FileStores in the process, for the pager_checksum_failures_total
// metric.
var checksumFailures atomic.Int64

// ChecksumFailures reports the number of page checksum mismatches
// detected process-wide since start.
func ChecksumFailures() int64 { return checksumFailures.Load() }

// crc32Of checksums a byte slice with the store's polynomial (used for
// header slots, which have no trailer).
func crc32Of(b []byte) uint32 { return crc32.Update(0, crcTable, b) }

// recBuf is scratch for one physical record — page, then trailer — plus
// the 12 bytes (page id, epoch) the checksum covers beyond the page, kept
// here so that computing it allocates nothing.
type recBuf [physPageSize + 12]byte

// pageCRC computes the trailer checksum for the page in rec at a given
// identity and epoch.
func pageCRC(rec *recBuf, id PageID, epoch uint64) uint32 {
	tail := rec[physPageSize:]
	binary.LittleEndian.PutUint32(tail[0:4], uint32(id))
	binary.LittleEndian.PutUint64(tail[4:12], epoch)
	c := crc32.Update(0, crcTable, rec[:PageSize])
	return crc32.Update(c, crcTable, tail)
}

// sealRecord fills rec (data already in rec[:PageSize]) with the trailer
// for (id, epoch).
func sealRecord(rec *recBuf, id PageID, epoch uint64) {
	crc := pageCRC(rec, id, epoch)
	binary.LittleEndian.PutUint32(rec[PageSize:], crc)
	binary.LittleEndian.PutUint64(rec[PageSize+4:], epoch)
	binary.LittleEndian.PutUint32(rec[PageSize+12:], 0)
}

// verifyRecord checks rec's trailer against its contents and returns the
// stored epoch. On mismatch it returns a *CorruptPageError and bumps the
// process-wide failure counter.
func verifyRecord(rec *recBuf, id PageID) (uint64, error) {
	want := binary.LittleEndian.Uint32(rec[PageSize:])
	epoch := binary.LittleEndian.Uint64(rec[PageSize+4:])
	got := pageCRC(rec, id, epoch)
	if got != want {
		checksumFailures.Add(1)
		// Leave a queryable record in the process journal: a checksum
		// failure is an operational event, not just a counter tick.
		obs.DefaultJournal().Record(obs.EventChecksumFailure, obs.SeverityError,
			"page checksum mismatch on read", map[string]string{
				"page":     strconv.FormatUint(uint64(id), 10),
				"stored":   fmt.Sprintf("%08x", want),
				"computed": fmt.Sprintf("%08x", got),
			})
		return 0, &CorruptPageError{ID: id, Want: want, Got: got}
	}
	return epoch, nil
}
