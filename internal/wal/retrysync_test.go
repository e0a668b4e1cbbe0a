package wal

import (
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// stickyErr returns the log's sticky durability failure, if any.
func stickyErr(l *Log) error {
	l.gcMu.Lock()
	defer l.gcMu.Unlock()
	return l.syncErr
}

// TestRetrySyncClearsStickyError: a failed fsync poisons the log (every
// durability wait reports it), and RetrySync is the one path that
// retries the fsync and — on success — clears the sticky error and
// marks the appended records durable.
func TestRetrySyncClearsStickyError(t *testing.T) {
	var fsyncFail atomic.Bool
	errInject := errors.New("injected fsync failure")
	l, _, err := Open(filepath.Join(t.TempDir(), "x.wal"), Options{
		GroupCommitWindow: -1, // fsync every commit round
		Fault: func(op string) error {
			if op == "fsync" && fsyncFail.Load() {
				return errInject
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	fsyncFail.Store(true)
	lsn, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncNow(lsn); !errors.Is(err, errInject) {
		t.Fatalf("SyncNow with failing fsync returned %v, want the injected error", err)
	}
	if err := stickyErr(l); !errors.Is(err, errInject) {
		t.Fatalf("sticky error = %v, want the injected error", err)
	}
	// The error stays sticky even for records that were already durable.
	if err := l.SyncNow(lsn); !errors.Is(err, errInject) {
		t.Fatalf("second SyncNow returned %v, want the sticky error", err)
	}

	// Retry while the device still fails: sticky error stays.
	if err := l.RetrySync(); !errors.Is(err, errInject) {
		t.Fatalf("RetrySync with failing fsync returned %v, want the injected error", err)
	}

	// Device recovers: RetrySync clears the error and advances durability.
	fsyncFail.Store(false)
	if err := l.RetrySync(); err != nil {
		t.Fatalf("RetrySync after recovery: %v", err)
	}
	if err := stickyErr(l); err != nil {
		t.Fatalf("sticky error after successful retry = %v, want nil", err)
	}
	if got := l.DurableLSN(); got != lsn {
		t.Fatalf("DurableLSN after retry = %d, want %d", got, lsn)
	}
	// Normal appends work again.
	lsn2, err := l.Append([]byte("healed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SyncNow(lsn2); err != nil {
		t.Fatalf("SyncNow after recovery: %v", err)
	}
}
