// Package wal implements the write-ahead log behind dynq's durable
// high-rate ingest path. The log is an append-only file of checksummed,
// epoch-stamped records (the same CRC32C-trailer idiom as the pager's v2
// page format) fronted by a dual-slot header committed atomically, so a
// crash at any byte leaves either the previous committed header or the
// new one — never a half-written one — and a torn record tail is
// detected and discarded on open instead of being replayed as garbage.
//
// Layout:
//
//	offset 0     header slot 0 (512 bytes)
//	offset 512   header slot 1 (512 bytes)
//	offset 1024  records, densely packed
//
// Header slot:
//
//	offset 0    8 bytes  magic "DYNQWAL1"
//	offset 8    8 bytes  commit sequence (also the record epoch)
//	offset 16   8 bytes  checkpoint LSN (records <= it are applied to the base file)
//	offset 24   8 bytes  next LSN to assign (monotonic across truncations)
//	offset 508  4 bytes  CRC32C over bytes [0, 508)
//
// Record:
//
//	offset 0    4 bytes  payload length n
//	offset 4    8 bytes  LSN
//	offset 12   8 bytes  epoch (header sequence at append time)
//	offset 20   n bytes  payload
//	offset 20+n 4 bytes  CRC32C over bytes [0, 20+n)
//
// Writers append under the log's mutex (cheap: one buffered pwrite) and
// then wait for durability according to their durability level. The wait
// is a group commit: the first waiter becomes the round's leader, sleeps
// the group-commit window so concurrent writers can pile in, and issues
// ONE fsync covering every record appended by then; followers block on a
// condition variable until the leader's round covers their LSN. A failed
// fsync is sticky — the log refuses further durability promises until
// reopened, and the database above degrades to read-only.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// Magic identifies a dynq WAL file (format version 1).
	Magic = "DYNQWAL1"

	headerSlotSize = 512
	recordsStart   = 2 * headerSlotSize

	recHeaderLen  = 4 + 8 + 8 // length, LSN, epoch
	recTrailerLen = 4         // CRC32C

	// MaxRecordLen bounds a single record's payload; anything larger in
	// a length field is corruption, not data.
	MaxRecordLen = 64 << 20

	// DefaultGroupCommitWindow is how long a group-commit leader waits
	// for concurrent writers before issuing the round's fsync.
	DefaultGroupCommitWindow = 2 * time.Millisecond
)

// castagnoli is the CRC32C table, matching the pager's page trailers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// ErrCorruptRecord is wrapped by every record decoding failure: a bad
// length, a checksum mismatch, or a truncated tail.
var ErrCorruptRecord = errors.New("wal: corrupt record")

// Options configure a log.
type Options struct {
	// GroupCommitWindow is how long a group-commit leader waits for
	// concurrent writers before fsyncing (0 = the 2ms default; negative
	// = fsync immediately, no coalescing delay).
	GroupCommitWindow time.Duration

	// Fault, when non-nil, is consulted before every physical
	// write-class operation ("append", "fsync", "checkpoint"); a non-nil
	// return is injected as that operation's failure. The log file sits
	// beside the page store and bypasses the tests' fault.Store, so disk-full
	// and write-error chaos testing hooks in here instead.
	Fault func(op string) error
}

func (o Options) window() time.Duration {
	switch {
	case o.GroupCommitWindow < 0:
		return 0
	case o.GroupCommitWindow == 0:
		return DefaultGroupCommitWindow
	}
	return o.GroupCommitWindow
}

// ScanReport describes what Open found in an existing log.
type ScanReport struct {
	// Records is the number of valid records scanned after the
	// checkpoint.
	Records int
	// Checkpoint is the committed checkpoint LSN.
	Checkpoint uint64
	// LastLSN is the highest valid record LSN found (0 when empty).
	LastLSN uint64
	// TornTail is true when the scan stopped at an invalid record before
	// the end of the file — the signature of a crash mid-append or
	// mid-group-commit. The torn bytes are discarded.
	TornTail bool
	// TornBytes is the number of tail bytes discarded.
	TornBytes int64
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	Appends       int64 // records appended
	AppendedBytes int64 // bytes appended (records, not headers)
	Fsyncs        int64 // fsync syscalls issued by group-commit rounds
	Coalesced     int64 // durability waits satisfied by another writer's fsync
	Checkpoints   int64 // checkpoint truncations
}

// Log is a write-ahead log. Append and Checkpoint serialize on an
// internal mutex; durability waits (Sync, SyncNow) run outside it so an
// fsync never blocks appends by other writers.
type Log struct {
	path   string
	window time.Duration

	mu         sync.Mutex
	f          *os.File
	closed     bool
	seq        uint64 // committed header sequence == epoch of new records
	checkpoint uint64 // highest LSN checkpointed into the base file
	nextLSN    uint64 // LSN the next Append will assign
	tail       int64  // file offset of the next record

	appended atomic.Uint64 // highest LSN appended

	// Group-commit state. gcMu is strictly ordered AFTER mu (fsync takes
	// mu briefly to read the file handle, never the reverse).
	gcMu    sync.Mutex
	gcCond  *sync.Cond
	syncing bool   // a leader's fsync round is in flight
	waiting int    // callers inside waitDurable, the round's leader included
	durable uint64 // highest LSN known fsynced (or checkpointed)
	syncErr error  // sticky fsync failure; cleared only by RetrySync

	stAppends, stBytes, stFsyncs, stCoalesced, stCheckpoints atomic.Int64

	// Instrumentation (metrics.go). nowFn is the injectable time source
	// behind duration measurements; set via WithClock before use.
	nowFn func() time.Time
	met   walMetrics

	fault func(op string) error // Options.Fault
}

// Create creates (or truncates) a log at path with a fresh header.
func Create(path string, opts Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := newLog(path, f, opts)
	l.seq = 1
	l.checkpoint = 0
	l.nextLSN = 1
	l.tail = recordsStart
	// Both slots get the initial header so the file tolerates a torn
	// commit from the very first checkpoint on.
	if err := l.writeHeaderSlot(0); err != nil {
		f.Close()
		return nil, err
	}
	if err := l.writeHeaderSlot(1); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// Open opens an existing log (creating a fresh one when path does not
// exist or is empty), picks the newest valid header slot, and scans the
// record region to find the durable tail: the scan stops at the first
// record with a bad length, a stale epoch, a non-monotonic LSN, or a
// checksum mismatch, and truncates the torn bytes away.
func Open(path string, opts Options) (*Log, *ScanReport, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if size == 0 {
		f.Close()
		l, err := Create(path, opts)
		if err != nil {
			return nil, nil, err
		}
		return l, &ScanReport{}, nil
	}
	l := newLog(path, f, opts)
	if err := l.readHeader(); err != nil {
		f.Close()
		return nil, nil, err
	}
	rep := &ScanReport{Checkpoint: l.checkpoint}
	if err := l.scanTail(size, rep); err != nil {
		f.Close()
		return nil, nil, err
	}
	return l, rep, nil
}

func newLog(path string, f *os.File, opts Options) *Log {
	l := &Log{path: path, f: f, window: opts.window(), nowFn: time.Now, fault: opts.Fault}
	l.gcCond = sync.NewCond(&l.gcMu)
	l.met = newWALMetrics()
	return l
}

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

func (l *Log) encodeHeader() []byte {
	buf := make([]byte, headerSlotSize)
	copy(buf, Magic)
	binary.LittleEndian.PutUint64(buf[8:], l.seq)
	binary.LittleEndian.PutUint64(buf[16:], l.checkpoint)
	binary.LittleEndian.PutUint64(buf[24:], l.nextLSN)
	crc := crc32.Checksum(buf[:headerSlotSize-4], castagnoli)
	binary.LittleEndian.PutUint32(buf[headerSlotSize-4:], crc)
	return buf
}

func (l *Log) writeHeaderSlot(slot int) error {
	_, err := l.f.WriteAt(l.encodeHeader(), int64(slot)*headerSlotSize)
	return err
}

// decodeHeaderSlot validates one slot, returning ok=false for an
// invalid one (wrong magic or checksum).
func decodeHeaderSlot(buf []byte) (seq, checkpoint, next uint64, ok bool) {
	if len(buf) < headerSlotSize || string(buf[:8]) != Magic {
		return 0, 0, 0, false
	}
	want := binary.LittleEndian.Uint32(buf[headerSlotSize-4:])
	if crc32.Checksum(buf[:headerSlotSize-4], castagnoli) != want {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[8:]),
		binary.LittleEndian.Uint64(buf[16:]),
		binary.LittleEndian.Uint64(buf[24:]), true
}

// readHeader picks the valid slot with the highest sequence — the last
// complete commit — mirroring the pager's dual-slot recovery.
func (l *Log) readHeader() error {
	buf := make([]byte, 2*headerSlotSize)
	if _, err := l.f.ReadAt(buf, 0); err != nil && !errors.Is(err, io.EOF) {
		return err
	}
	best := false
	for slot := 0; slot < 2; slot++ {
		seq, cp, next, ok := decodeHeaderSlot(buf[slot*headerSlotSize : (slot+1)*headerSlotSize])
		if ok && (!best || seq > l.seq) {
			l.seq, l.checkpoint, l.nextLSN = seq, cp, next
			best = true
		}
	}
	if !best {
		return fmt.Errorf("%w: no valid header slot", ErrCorruptRecord)
	}
	return nil
}

// scanTail walks the record region validating every record, establishes
// the append tail after the last valid one, and physically truncates any
// torn bytes beyond it.
func (l *Log) scanTail(size int64, rep *ScanReport) error {
	if size < recordsStart {
		// A crash during Create can persist one header slot and nothing
		// else, leaving the file shorter than the header region. readHeader
		// already validated a slot, so treat it as a torn create: no
		// records, and the file is restored to the record-region start so
		// appends land where the header says they do.
		rep.TornTail = true
		if err := l.f.Truncate(recordsStart); err != nil {
			return err
		}
		size = recordsStart
	}
	data := make([]byte, size-recordsStart)
	if len(data) > 0 {
		if _, err := l.f.ReadAt(data, recordsStart); err != nil {
			return err
		}
	}
	off := 0
	last := l.checkpoint
	for off < len(data) {
		lsn, epoch, _, n, err := DecodeRecord(data[off:])
		if err != nil || epoch != l.seq || lsn <= last {
			rep.TornTail = true
			rep.TornBytes = int64(len(data) - off)
			break
		}
		last = lsn
		off += n
		rep.Records++
	}
	rep.LastLSN = last
	l.tail = recordsStart + int64(off)
	l.appended.Store(last)
	if rep.TornTail {
		if err := l.f.Truncate(l.tail); err != nil {
			return err
		}
	}
	// The scan proves the surviving records are readable, not that any
	// pre-crash fsync ever covered them — they may have been served from
	// the OS cache. One fsync here (also covering the tail truncate) makes
	// the durable promise true before any Sync(lsn) for a replayed record
	// returns without issuing its own.
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.durable = last
	if last >= l.nextLSN {
		l.nextLSN = last + 1
	}
	return nil
}

// EncodeRecord frames one payload as a WAL record.
func EncodeRecord(lsn, epoch uint64, payload []byte) []byte {
	buf := make([]byte, recHeaderLen+len(payload)+recTrailerLen)
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[4:], lsn)
	binary.LittleEndian.PutUint64(buf[12:], epoch)
	copy(buf[recHeaderLen:], payload)
	crc := crc32.Checksum(buf[:recHeaderLen+len(payload)], castagnoli)
	binary.LittleEndian.PutUint32(buf[recHeaderLen+len(payload):], crc)
	return buf
}

// DecodeRecord parses and validates the record at the start of b,
// returning its LSN, epoch, payload (aliasing b), and total encoded
// length. Every failure wraps ErrCorruptRecord; during replay a failure
// marks the torn tail, not a fatal state.
func DecodeRecord(b []byte) (lsn, epoch uint64, payload []byte, n int, err error) {
	if len(b) < recHeaderLen+recTrailerLen {
		return 0, 0, nil, 0, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorruptRecord, len(b))
	}
	plen := binary.LittleEndian.Uint32(b[0:])
	if plen > MaxRecordLen {
		return 0, 0, nil, 0, fmt.Errorf("%w: implausible payload length %d", ErrCorruptRecord, plen)
	}
	n = recHeaderLen + int(plen) + recTrailerLen
	if len(b) < n {
		return 0, 0, nil, 0, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorruptRecord, len(b), n)
	}
	want := binary.LittleEndian.Uint32(b[n-recTrailerLen:])
	if crc32.Checksum(b[:n-recTrailerLen], castagnoli) != want {
		return 0, 0, nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	lsn = binary.LittleEndian.Uint64(b[4:])
	epoch = binary.LittleEndian.Uint64(b[12:])
	return lsn, epoch, b[recHeaderLen : n-recTrailerLen], n, nil
}

// Append assigns the next LSN, stamps the record with the current epoch,
// and writes it at the tail WITHOUT waiting for durability; call Sync or
// SyncNow with the returned LSN to make it durable.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordLen {
		return 0, fmt.Errorf("wal: payload of %d bytes exceeds the %d-byte record cap", len(payload), MaxRecordLen)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	lsn := l.nextLSN
	rec := EncodeRecord(lsn, l.seq, payload)
	if l.fault != nil {
		if err := l.fault("append"); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
	}
	if _, err := l.f.WriteAt(rec, l.tail); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.nextLSN++
	l.tail += int64(len(rec))
	l.appended.Store(lsn)
	l.stAppends.Add(1)
	l.stBytes.Add(int64(len(rec)))
	l.met.appendBytes.Observe(float64(len(rec)))
	return lsn, nil
}

// Sync blocks until every record up to lsn is durable, coalescing with
// concurrent waiters: a round's leader that has company — another caller
// already waiting, or a record appended behind its own — holds the round
// open for the group-commit window, then one fsync covers the whole pile.
// A lone leader has nobody to wait for and fsyncs at once; whoever arrives
// during that fsync piles into the next round.
func (l *Log) Sync(lsn uint64) error { return l.waitDurable(lsn, l.window) }

// SyncNow is Sync without the coalescing delay — the round leader fsyncs
// immediately (DurabilitySync semantics).
func (l *Log) SyncNow(lsn uint64) error { return l.waitDurable(lsn, 0) }

func (l *Log) waitDurable(lsn uint64, window time.Duration) error {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	l.waiting++
	defer func() { l.waiting-- }()
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.durable >= lsn {
			return nil
		}
		if l.syncing {
			// Another writer's round is in flight; ride it.
			l.stCoalesced.Add(1)
			l.gcCond.Wait()
			continue
		}
		// Become this round's leader. The window buys coalescing only if
		// somebody can join the round.
		l.syncing = true
		company := l.waiting > 1 || l.appended.Load() > lsn
		l.gcMu.Unlock()
		if window > 0 && company {
			time.Sleep(window)
		}
		high := l.appended.Load()
		start := l.nowFn()
		err := l.fsync()
		elapsed := l.nowFn().Sub(start)
		l.gcMu.Lock()
		l.syncing = false
		if err != nil {
			l.syncErr = err
		} else {
			l.met.fsync.ObserveDuration(elapsed)
			if high > l.durable {
				// Records newly covered by this round's fsync: the batch
				// the group commit amortized into one syscall.
				l.met.batch.Observe(float64(high - l.durable))
				l.durable = high
			}
		}
		l.gcCond.Broadcast()
	}
}

// RetrySync re-attempts the fsync behind a sticky failure. On success
// the sticky error is cleared and everything appended so far is durable,
// re-arming the log for new durability promises — the recovery half of
// the circuit breaker (the maintenance probe calls this once the
// underlying storage looks healthy again). A closed log stays closed.
func (l *Log) RetrySync() error {
	l.gcMu.Lock()
	for l.syncing {
		l.gcCond.Wait()
	}
	if errors.Is(l.syncErr, ErrClosed) {
		l.gcMu.Unlock()
		return ErrClosed
	}
	l.syncing = true
	l.gcMu.Unlock()

	high := l.appended.Load()
	start := l.nowFn()
	err := l.fsync()
	elapsed := l.nowFn().Sub(start)

	l.gcMu.Lock()
	l.syncing = false
	if err != nil {
		l.syncErr = err
	} else {
		l.syncErr = nil
		l.met.fsync.ObserveDuration(elapsed)
		if high > l.durable {
			l.met.batch.Observe(float64(high - l.durable))
			l.durable = high
		}
	}
	l.gcCond.Broadcast()
	l.gcMu.Unlock()
	return err
}

func (l *Log) fsync() error {
	l.mu.Lock()
	f, closed := l.f, l.closed
	l.mu.Unlock()
	if closed || f == nil {
		return ErrClosed
	}
	l.stFsyncs.Add(1)
	if l.fault != nil {
		if err := l.fault("fsync"); err != nil {
			return fmt.Errorf("wal: fsync: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Checkpoint records that every update up to lsn is durably applied to
// the base file: the record region is truncated away and a new header —
// next epoch, new checkpoint — is committed to the alternate slot. The
// caller must guarantee no concurrent Append (dynq holds the database
// writer lock across its page commit and this call).
func (l *Log) Checkpoint(lsn uint64) error {
	start := l.nowFn()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.fault != nil {
		if err := l.fault("checkpoint"); err != nil {
			l.mu.Unlock()
			return fmt.Errorf("wal: checkpoint: %w", err)
		}
	}
	if err := l.f.Truncate(recordsStart); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint truncate: %w", err)
	}
	l.seq++
	if lsn > l.checkpoint {
		l.checkpoint = lsn
	}
	l.tail = recordsStart
	slot := int(l.seq % 2)
	if err := l.writeHeaderSlot(slot); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint header: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.mu.Unlock()
		return fmt.Errorf("wal: checkpoint commit: %w", err)
	}
	l.stCheckpoints.Add(1)
	l.met.checkpoint.ObserveDuration(l.nowFn().Sub(start))
	l.mu.Unlock()

	// A checkpointed LSN is durable in the base file — stronger than
	// WAL-durable. Release any writer still waiting on it.
	l.gcMu.Lock()
	if l.checkpoint > l.durable {
		l.durable = l.checkpoint
	}
	l.gcCond.Broadcast()
	l.gcMu.Unlock()
	return nil
}

// Replay reads the record region from disk and hands every valid record
// with LSN > after to fn, in LSN order, stopping cleanly at the torn
// tail (already truncated by Open). An error from fn aborts the replay.
func (l *Log) Replay(after uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	size := l.tail - recordsStart
	data := make([]byte, size)
	var rerr error
	if size > 0 {
		_, rerr = l.f.ReadAt(data, recordsStart)
	}
	seq := l.seq
	l.mu.Unlock()
	if rerr != nil {
		return fmt.Errorf("wal: replay read: %w", rerr)
	}
	off := 0
	for off < len(data) {
		lsn, epoch, payload, n, err := DecodeRecord(data[off:])
		if err != nil || epoch != seq {
			// Open truncated the torn tail, so this is new corruption
			// (or a record torn by a concurrent crash test); stop.
			return nil
		}
		if lsn > after {
			if err := fn(lsn, payload); err != nil {
				return err
			}
		}
		off += n
	}
	return nil
}

// LastLSN returns the highest LSN appended (0 when none since the log
// was created).
func (l *Log) LastLSN() uint64 { return l.appended.Load() }

// CheckpointLSN returns the committed checkpoint LSN.
func (l *Log) CheckpointLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkpoint
}

// DurableLSN returns the highest LSN known durable.
func (l *Log) DurableLSN() uint64 {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.durable
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:       l.stAppends.Load(),
		AppendedBytes: l.stBytes.Load(),
		Fsyncs:        l.stFsyncs.Load(),
		Coalesced:     l.stCoalesced.Load(),
		Checkpoints:   l.stCheckpoints.Load(),
	}
}

// Close fsyncs and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.wakeWaiters()
	return err
}

// Crash closes the log WITHOUT syncing, so unfsynced appends are at the
// mercy of the OS — the crash-simulation hook used by the crash soaks
// (mirroring FileStore.Crash).
func (l *Log) Crash() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.f.Close()
	l.wakeWaiters()
	return err
}

// wakeWaiters releases durability waiters after close; their next fsync
// attempt observes the closed log. Called with mu held.
func (l *Log) wakeWaiters() {
	l.gcMu.Lock()
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.gcCond.Broadcast()
	l.gcMu.Unlock()
}
