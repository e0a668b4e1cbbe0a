package dynq

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"dynq/internal/obs"
)

// ErrReadOnly is returned by mutating operations once the database has
// degraded to read-only mode after persistent storage write failures (or
// after SetReadOnly(true)). Queries keep working; writes fail fast until
// the operator clears the condition or the maintenance probe heals it.
var ErrReadOnly = errors.New("dynq: database is read-only (degraded after storage write failures)")

// ErrDiskFull wraps write failures caused by an exhausted volume
// (ENOSPC), from either the page store or the WAL. It is carried over
// the wire with its own error kind so clients can tell "the server's
// disk is full" from a generic storage failure; the maintenance probe
// clears the resulting degraded mode automatically once space returns.
var ErrDiskFull = errors.New("dynq: disk full")

// wrapDiskFull stamps ErrDiskFull onto ENOSPC-rooted failures so they
// stay detectable after the generic write-path wrapping.
func wrapDiskFull(err error) error {
	if err == nil || !errors.Is(err, syscall.ENOSPC) || errors.Is(err, ErrDiskFull) {
		return err
	}
	return fmt.Errorf("%w: %w", ErrDiskFull, err)
}

// degradeAfter is the number of CONSECUTIVE storage write failures that
// trips degraded mode: mutations return ErrReadOnly until SetReadOnly(false)
// or the maintenance probe heals the database.
const degradeAfter = 3

// degradeState tracks consecutive storage write failures and the
// degraded (read-only) flag; all methods are safe for concurrent use.
type degradeState struct {
	degraded   atomic.Bool
	writeFails atomic.Int32
}

// gate returns ErrReadOnly when the database is degraded. Mutating
// operations call it before doing any work.
func (d *degradeState) gate() error {
	if d.degraded.Load() {
		return ErrReadOnly
	}
	return nil
}

// note records the outcome of a storage-touching write: success resets
// the consecutive-failure counter, failure advances it and trips
// degraded mode at the threshold. ENOSPC-rooted failures come back
// stamped with ErrDiskFull; other errors return unchanged, so callers
// can `return e.health.note(err)`.
func (d *degradeState) note(err error) error {
	if err == nil {
		d.writeFails.Store(0)
		return nil
	}
	err = wrapDiskFull(err)
	n := d.writeFails.Add(1)
	if n >= degradeAfter && d.degraded.CompareAndSwap(false, true) {
		obs.DefaultJournal().Record(obs.EventDegradedEnter, obs.SeverityError,
			"database degraded to read-only after consecutive storage write failures",
			map[string]string{
				"consecutive_failures": strconv.Itoa(int(n)),
				"last_error":           err.Error(),
			})
	}
	return err
}

// trip enters degraded mode directly (no failure-count threshold) with
// a caller-supplied journal message — the scrubber's path when it finds
// unrepairable corruption.
func (d *degradeState) trip(msg string, fields map[string]string) {
	if d.degraded.CompareAndSwap(false, true) {
		obs.DefaultJournal().Record(obs.EventDegradedEnter, obs.SeverityError, msg, fields)
	}
}

// heal clears degraded mode from the maintenance probe path, journaling
// the exit with how many probes it took and how long writes were
// refused. Returns false when the database was not degraded (a racing
// manual clear).
func (d *degradeState) heal(probes int, downtime time.Duration) bool {
	if !d.degraded.CompareAndSwap(true, false) {
		return false
	}
	d.writeFails.Store(0)
	obs.DefaultJournal().Record(obs.EventDegradedExit, obs.SeverityInfo,
		"degraded mode cleared: maintenance probe wrote durably",
		map[string]string{
			"probes":   strconv.Itoa(probes),
			"downtime": downtime.Round(time.Millisecond).String(),
		})
	return true
}

// set forces the degraded flag; clearing it also resets the failure
// counter so one old failure doesn't immediately re-trip. Transitions in
// either direction leave an event-journal record.
func (d *degradeState) set(on bool) {
	if !on {
		d.writeFails.Store(0)
	}
	if d.degraded.Swap(on) == on {
		return
	}
	if on {
		obs.DefaultJournal().Record(obs.EventDegradedEnter, obs.SeverityError,
			"database set read-only", nil)
	} else {
		obs.DefaultJournal().Record(obs.EventDegradedExit, obs.SeverityInfo,
			"database left read-only mode", nil)
	}
}

// Degraded reports whether the database has entered read-only mode.
func (e *engine) Degraded() bool { return e.health.degraded.Load() }

// SetReadOnly manually enters (true) or clears (false) read-only mode.
// Clearing also forgets accumulated write failures.
func (e *engine) SetReadOnly(on bool) { e.health.set(on) }
