// Package fault wraps a pager.Store and fails its operations on demand:
// one-shot countdowns and seeded probabilistic plans of errors, torn writes,
// bit flips and latency. Only tests import it: the failure-propagation
// tests (every query engine must surface I/O errors instead of returning
// partial answers silently), the crash tests and the soaks.
package fault

import (
	"errors"
	"fmt"
	"sync/atomic"
	"syscall"
	"time"

	"dynq/internal/pager"
)

// ErrInjected is the failure returned by a Store when armed.
var ErrInjected = errors.New("fault: injected fault")

// ErrNoSpace is the injected disk-full failure. It wraps syscall.ENOSPC
// so callers detect it exactly like the real thing:
// errors.Is(err, syscall.ENOSPC) holds for both.
var ErrNoSpace = fmt.Errorf("fault: injected disk full: %w", syscall.ENOSPC)

// Store wraps a pager.Store and injects failures on demand. It supports
// two modes, usable together:
//
//   - One-shot countdowns: after Arm(n), the n-th subsequent read
//     (1-based) and all reads after it fail with ErrInjected; ArmWrites,
//     ArmSyncs, ArmAllocs, ArmFrees do the same per operation, and
//     ArmTornWrites makes the n-th write persist only a prefix of the
//     page before the store starts failing. Countdowns give tests exact
//     control over which operation dies.
//
//   - A scripted Plan: probabilistic per-op failure rates, torn
//     writes, bit flips, and added latency, driven by a deterministic
//     seeded generator. Plans drive the fault soak, the crash-soak
//     hook set whose write phase runs through a Store
//     (TestSoakReports in the root package).
type Store struct {
	Inner pager.Store

	readCountdown  atomic.Int64 // <0: disarmed
	writeCountdown atomic.Int64
	tornCountdown  atomic.Int64
	syncCountdown  atomic.Int64
	allocCountdown atomic.Int64
	freeCountdown  atomic.Int64

	noSpaceCountdown atomic.Int64 // <0: disarmed; counts write-class ops
	noSpaceSticky    atomic.Bool

	plan atomic.Pointer[Plan]
	rng  atomic.Uint64

	stats faultCounters
}

// Plan is a probabilistic fault schedule. Each probability is the
// per-operation chance in [0, 1]; Seed makes a run reproducible.
type Plan struct {
	Seed uint64

	ReadErr  float64 // ReadPage fails with ErrInjected
	WriteErr float64 // WritePage fails with ErrInjected
	SyncErr  float64 // Sync fails with ErrInjected
	AllocErr float64 // Alloc fails with ErrInjected
	FreeErr  float64 // Free fails with ErrInjected

	// TornWrite is the chance a WritePage persists only a random prefix
	// of the physical page and then reports ErrInjected, simulating a
	// torn sector write under power loss.
	TornWrite float64
	// BitFlip is the chance a successful WritePage is followed by a
	// single-bit corruption of the stored bytes (below the checksum),
	// simulating media rot.
	BitFlip float64

	// Latency is added to every intercepted operation.
	Latency time.Duration
}

// Stats counts operations seen and faults injected by a Store.
type Stats struct {
	Reads, Writes, Syncs, Allocs, Frees int64

	InjectedReads, InjectedWrites, InjectedSyncs int64
	InjectedAllocs, InjectedFrees                int64
	TornWrites, BitFlips, NoSpace                int64
}

type faultCounters struct {
	reads, writes, syncs, allocs, frees               atomic.Int64
	injReads, injWrites, injSyncs, injAllocs, injFree atomic.Int64
	torn, flips, noSpace                              atomic.Int64
}

// NewStore wraps inner with fault injection disarmed.
func NewStore(inner pager.Store) *Store {
	f := &Store{Inner: inner}
	f.readCountdown.Store(-1)
	f.writeCountdown.Store(-1)
	f.tornCountdown.Store(-1)
	f.syncCountdown.Store(-1)
	f.allocCountdown.Store(-1)
	f.freeCountdown.Store(-1)
	f.noSpaceCountdown.Store(-1)
	return f
}

// Arm makes the n-th subsequent ReadPage (1-based) and all reads after it
// fail.
func (f *Store) Arm(n int64) { f.readCountdown.Store(n) }

// ArmWrites makes the n-th subsequent WritePage and all writes after it
// fail.
func (f *Store) ArmWrites(n int64) { f.writeCountdown.Store(n) }

// ArmTornWrites makes the n-th subsequent WritePage persist only a
// prefix of the page (then report ErrInjected), with all writes after it
// failing outright — the write pattern of a crash mid-flush.
func (f *Store) ArmTornWrites(n int64) { f.tornCountdown.Store(n) }

// ArmSyncs makes the n-th subsequent Sync and all syncs after it fail.
func (f *Store) ArmSyncs(n int64) { f.syncCountdown.Store(n) }

// ArmAllocs makes the n-th subsequent Alloc and all allocs after it fail.
func (f *Store) ArmAllocs(n int64) { f.allocCountdown.Store(n) }

// ArmFrees makes the n-th subsequent Free and all frees after it fail.
func (f *Store) ArmFrees(n int64) { f.freeCountdown.Store(n) }

// ArmNoSpace simulates the disk filling up: the n-th subsequent
// write-class operation (WritePage, Alloc, or Sync; 1-based) fails with
// ErrNoSpace. Sticky mode keeps every write-class operation failing
// until Disarm or DisarmNoSpace — a full volume. Transient mode fails
// exactly one operation and then behaves as if space was freed.
func (f *Store) ArmNoSpace(n int64, sticky bool) {
	f.noSpaceSticky.Store(sticky)
	f.noSpaceCountdown.Store(n)
}

// DisarmNoSpace frees the simulated volume without touching other
// armed faults.
func (f *Store) DisarmNoSpace() { f.noSpaceCountdown.Store(-1) }

// NoSpaceArmed reports whether a disk-full fault is still pending or
// sticking.
func (f *Store) NoSpaceArmed() bool { return f.noSpaceCountdown.Load() >= 0 }

// tripNoSpace advances the disk-full countdown for one write-class
// operation.
func (f *Store) tripNoSpace() bool {
	sticky := f.noSpaceSticky.Load()
	for {
		v := f.noSpaceCountdown.Load()
		switch {
		case v < 0:
			return false
		case v <= 1:
			if sticky {
				return true // stay full
			}
			if f.noSpaceCountdown.CompareAndSwap(v, -1) {
				return true // one failure, then space returns
			}
		default:
			if f.noSpaceCountdown.CompareAndSwap(v, v-1) {
				return false
			}
		}
	}
}

// Script installs (or, with nil, removes) a probabilistic fault plan.
// The generator is reseeded from plan.Seed.
func (f *Store) Script(plan *Plan) {
	if plan != nil {
		f.rng.Store(plan.Seed)
	}
	f.plan.Store(plan)
}

// Disarm stops injecting failures: countdowns reset and any scripted
// plan is removed.
func (f *Store) Disarm() {
	f.readCountdown.Store(-1)
	f.writeCountdown.Store(-1)
	f.tornCountdown.Store(-1)
	f.syncCountdown.Store(-1)
	f.allocCountdown.Store(-1)
	f.freeCountdown.Store(-1)
	f.noSpaceCountdown.Store(-1)
	f.plan.Store(nil)
}

// Stats returns cumulative operation and injection counts.
func (f *Store) Stats() Stats {
	return Stats{
		Reads:          f.stats.reads.Load(),
		Writes:         f.stats.writes.Load(),
		Syncs:          f.stats.syncs.Load(),
		Allocs:         f.stats.allocs.Load(),
		Frees:          f.stats.frees.Load(),
		InjectedReads:  f.stats.injReads.Load(),
		InjectedWrites: f.stats.injWrites.Load(),
		InjectedSyncs:  f.stats.injSyncs.Load(),
		InjectedAllocs: f.stats.injAllocs.Load(),
		InjectedFrees:  f.stats.injFree.Load(),
		TornWrites:     f.stats.torn.Load(),
		BitFlips:       f.stats.flips.Load(),
		NoSpace:        f.stats.noSpace.Load(),
	}
}

func trip(c *atomic.Int64) bool {
	for {
		v := c.Load()
		if v < 0 {
			return false
		}
		if v <= 1 {
			return true // stay tripped
		}
		if c.CompareAndSwap(v, v-1) {
			return false
		}
	}
}

// tripOnce is trip that distinguishes the exact trip point: it returns
// (true, true) on the n-th operation, (true, false) on every operation
// after it, and (false, _) while counting down or disarmed.
func tripOnce(c *atomic.Int64) (tripped, first bool) {
	for {
		v := c.Load()
		switch {
		case v < 0:
			return false, false
		case v == 0:
			return true, false
		case v == 1:
			if c.CompareAndSwap(1, 0) {
				return true, true
			}
		default:
			if c.CompareAndSwap(v, v-1) {
				return false, false
			}
		}
	}
}

// next returns a deterministic pseudo-random 64-bit value (splitmix64
// over an atomically advanced state).
func (f *Store) next() uint64 {
	for {
		old := f.rng.Load()
		state := old + 0x9E3779B97F4A7C15
		if f.rng.CompareAndSwap(old, state) {
			z := state
			z ^= z >> 30
			z *= 0xBF58476D1CE4E5B9
			z ^= z >> 27
			z *= 0x94D049BB133111EB
			z ^= z >> 31
			return z
		}
	}
}

func (f *Store) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(f.next()>>11)/(1<<53) < p
}

// enter applies the plan's latency (if any) and returns the active plan.
func (f *Store) enter() *Plan {
	p := f.plan.Load()
	if p != nil && p.Latency > 0 {
		time.Sleep(p.Latency)
	}
	return p
}

// recordSize is a FileStore page as it lies on disk: the page and its
// 16-byte checksum trailer (pager's file layout). A torn write keeps a
// prefix of it, and a bit flip lands anywhere in it.
const recordSize = pager.PageSize + 16

// tornWriter is the optional store hook for prefix-only page writes.
// FileStore tears the physical record (data + checksum trailer);
// MemStore tears the logical page.
type tornWriter interface {
	WritePageTorn(id pager.PageID, buf []byte, n int) error
}

// bitFlipper is the optional store hook for below-the-checksum
// single-bit corruption.
type bitFlipper interface {
	FlipBit(id pager.PageID, bit int) error
}

// tearWrite persists a random prefix of the page via the inner store's
// torn-write hook (falling back to a plain failed write when the store
// has none) and reports ErrInjected.
func (f *Store) tearWrite(id pager.PageID, buf []byte) error {
	f.stats.torn.Add(1)
	if tw, ok := f.Inner.(tornWriter); ok {
		n := int(f.next() % uint64(recordSize))
		if err := tw.WritePageTorn(id, buf, n); err != nil {
			return err
		}
	}
	return ErrInjected
}

// ReadPage implements pager.Store.
func (f *Store) ReadPage(id pager.PageID, buf []byte) error {
	f.stats.reads.Add(1)
	if trip(&f.readCountdown) {
		f.stats.injReads.Add(1)
		return ErrInjected
	}
	if p := f.enter(); p != nil && f.chance(p.ReadErr) {
		f.stats.injReads.Add(1)
		return ErrInjected
	}
	return f.Inner.ReadPage(id, buf)
}

// WritePage implements pager.Store.
func (f *Store) WritePage(id pager.PageID, buf []byte) error {
	f.stats.writes.Add(1)
	if f.tripNoSpace() {
		f.stats.noSpace.Add(1)
		return ErrNoSpace
	}
	if tripped, first := tripOnce(&f.tornCountdown); tripped {
		f.stats.injWrites.Add(1)
		if first {
			return f.tearWrite(id, buf)
		}
		return ErrInjected
	}
	if trip(&f.writeCountdown) {
		f.stats.injWrites.Add(1)
		return ErrInjected
	}
	if p := f.enter(); p != nil {
		if f.chance(p.TornWrite) {
			f.stats.injWrites.Add(1)
			return f.tearWrite(id, buf)
		}
		if f.chance(p.WriteErr) {
			f.stats.injWrites.Add(1)
			return ErrInjected
		}
		if err := f.Inner.WritePage(id, buf); err != nil {
			return err
		}
		if fl, ok := f.Inner.(bitFlipper); ok && f.chance(p.BitFlip) {
			f.stats.flips.Add(1)
			return fl.FlipBit(id, int(f.next()%uint64(recordSize*8)))
		}
		return nil
	}
	return f.Inner.WritePage(id, buf)
}

// Alloc implements pager.Store.
func (f *Store) Alloc() (pager.PageID, error) {
	f.stats.allocs.Add(1)
	if f.tripNoSpace() {
		f.stats.noSpace.Add(1)
		return pager.InvalidPage, ErrNoSpace
	}
	if trip(&f.allocCountdown) {
		f.stats.injAllocs.Add(1)
		return pager.InvalidPage, ErrInjected
	}
	if p := f.enter(); p != nil && f.chance(p.AllocErr) {
		f.stats.injAllocs.Add(1)
		return pager.InvalidPage, ErrInjected
	}
	return f.Inner.Alloc()
}

// Free implements pager.Store.
func (f *Store) Free(id pager.PageID) error {
	f.stats.frees.Add(1)
	if trip(&f.freeCountdown) {
		f.stats.injFree.Add(1)
		return ErrInjected
	}
	if p := f.enter(); p != nil && f.chance(p.FreeErr) {
		f.stats.injFree.Add(1)
		return ErrInjected
	}
	return f.Inner.Free(id)
}

// NumPages implements pager.Store.
func (f *Store) NumPages() int { return f.Inner.NumPages() }

// Sync implements pager.Store.
func (f *Store) Sync() error {
	f.stats.syncs.Add(1)
	if f.tripNoSpace() {
		f.stats.noSpace.Add(1)
		return ErrNoSpace
	}
	if trip(&f.syncCountdown) {
		f.stats.injSyncs.Add(1)
		return ErrInjected
	}
	if p := f.enter(); p != nil && f.chance(p.SyncErr) {
		f.stats.injSyncs.Add(1)
		return ErrInjected
	}
	return f.Inner.Sync()
}

// Close implements pager.Store.
func (f *Store) Close() error { return f.Inner.Close() }

// SetAux forwards to the inner store when it keeps caller metadata
// (fault-free: aux updates are in-memory staging, not I/O).
func (f *Store) SetAux(data []byte) error {
	if s, ok := f.Inner.(interface{ SetAux([]byte) error }); ok {
		return s.SetAux(data)
	}
	return nil
}

// Aux forwards to the inner store when it keeps caller metadata.
func (f *Store) Aux() []byte {
	if s, ok := f.Inner.(interface{ Aux() []byte }); ok {
		return s.Aux()
	}
	return nil
}

// ReadPageEpoch forwards to the inner store's verified epoch read when
// it has one, applying the same read-fault injection as ReadPage. The
// background scrubber uses this to check CRC + epoch trailers through
// whatever store the database was opened on.
func (f *Store) ReadPageEpoch(id pager.PageID, buf []byte) (uint64, error) {
	s, ok := f.Inner.(interface {
		ReadPageEpoch(pager.PageID, []byte) (uint64, error)
	})
	if !ok {
		return 0, errors.New("fault: inner store has no epoch reads")
	}
	f.stats.reads.Add(1)
	if trip(&f.readCountdown) {
		f.stats.injReads.Add(1)
		return 0, ErrInjected
	}
	if p := f.enter(); p != nil && f.chance(p.ReadErr) {
		f.stats.injReads.Add(1)
		return 0, ErrInjected
	}
	return s.ReadPageEpoch(id, buf)
}

// CommittedSeq forwards to the inner store's committed header sequence
// when it has one (fault-free: it is an in-memory read).
func (f *Store) CommittedSeq() uint64 {
	if s, ok := f.Inner.(interface{ CommittedSeq() uint64 }); ok {
		return s.CommittedSeq()
	}
	return 0
}

// VerifyHeader forwards to the inner store's committed-header recheck
// when it has one (fault-free: the probe wants the real on-disk truth).
func (f *Store) VerifyHeader() error {
	if s, ok := f.Inner.(interface{ VerifyHeader() error }); ok {
		return s.VerifyHeader()
	}
	return nil
}
