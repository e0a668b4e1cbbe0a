package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// immediate disables the group-commit delay so tests don't sleep.
var immediate = Options{GroupCommitWindow: -1}

func create(t *testing.T) *Log {
	t.Helper()
	l, err := Create(filepath.Join(t.TempDir(), "test.wal"), immediate)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func appendSync(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	lsn, err := l.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	if err := l.SyncNow(lsn); err != nil {
		t.Fatalf("SyncNow(%d): %v", lsn, err)
	}
	return lsn
}

func collect(t *testing.T, l *Log, after uint64) map[uint64]string {
	t.Helper()
	got := map[uint64]string{}
	if err := l.Replay(after, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l := create(t)
	want := map[uint64]string{}
	for i := 0; i < 10; i++ {
		payload := fmt.Sprintf("record-%d", i)
		want[appendSync(t, l, payload)] = payload
	}
	got := collect(t, l, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for lsn, p := range want {
		if got[lsn] != p {
			t.Errorf("lsn %d: got %q, want %q", lsn, got[lsn], p)
		}
	}
	if got := collect(t, l, 5); len(got) != 5 {
		t.Errorf("Replay(after=5) returned %d records, want 5", len(got))
	}
}

func TestReopenAfterCleanClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, immediate)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendSync(t, l, "alpha")
	appendSync(t, l, "beta")
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rep, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if rep.Records != 2 || rep.TornTail || rep.LastLSN != 2 {
		t.Fatalf("scan report = %+v, want 2 records, no torn tail, last LSN 2", rep)
	}
	// LSNs keep ascending across the reopen.
	if lsn, err := l2.Append([]byte("gamma")); err != nil || lsn != 3 {
		t.Fatalf("Append after reopen = (%d, %v), want LSN 3", lsn, err)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	for _, cut := range []int64{1, 3, 10} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "test.wal")
			l, err := Create(path, immediate)
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			appendSync(t, l, "committed")
			appendSync(t, l, "torn-away")
			if err := l.Crash(); err != nil {
				t.Fatalf("Crash: %v", err)
			}
			// Tear the tail: chop bytes off the last record.
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-cut); err != nil {
				t.Fatal(err)
			}

			l2, rep, err := Open(path, immediate)
			if err != nil {
				t.Fatalf("Open after tear: %v", err)
			}
			defer l2.Close()
			if !rep.TornTail || rep.Records != 1 || rep.LastLSN != 1 {
				t.Fatalf("scan report = %+v, want torn tail with 1 surviving record", rep)
			}
			got := collect(t, l2, 0)
			if len(got) != 1 || got[1] != "committed" {
				t.Fatalf("replay after tear = %v, want only the committed record", got)
			}
			// The log stays appendable and the new record lands cleanly.
			if lsn, err := l2.Append([]byte("after-tear")); err != nil || lsn != 2 {
				t.Fatalf("Append after tear = (%d, %v), want LSN 2", lsn, err)
			}
		})
	}
}

func TestCorruptMiddleRecordStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, immediate)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendSync(t, l, "first")
	appendSync(t, l, "second")
	appendSync(t, l, "third")
	l.Crash()

	// Flip a byte inside the second record's payload.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	secondPayload := recordsStart + (recHeaderLen + 5 + recTrailerLen) + recHeaderLen
	raw[secondPayload] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if !rep.TornTail || rep.Records != 1 {
		t.Fatalf("scan report = %+v, want stop after first record", rep)
	}
	got := collect(t, l2, 0)
	if len(got) != 1 || got[1] != "first" {
		t.Fatalf("replay = %v, want only the first record", got)
	}
}

func TestCheckpointTruncatesAndSkipsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, immediate)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendSync(t, l, "one")
	last := appendSync(t, l, "two")
	if err := l.Checkpoint(last); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if got := collect(t, l, 0); len(got) != 0 {
		t.Fatalf("replay after checkpoint = %v, want empty", got)
	}
	// Post-checkpoint records live in the new epoch and keep their LSNs.
	if lsn := appendSync(t, l, "three"); lsn != 3 {
		t.Fatalf("post-checkpoint LSN = %d, want 3", lsn)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l2.Close()
	if rep.Checkpoint != 2 || rep.Records != 1 || rep.LastLSN != 3 {
		t.Fatalf("scan report = %+v, want checkpoint 2 and one live record", rep)
	}
	got := collect(t, l2, rep.Checkpoint)
	if len(got) != 1 || got[3] != "three" {
		t.Fatalf("replay = %v, want only the post-checkpoint record", got)
	}
}

func TestTornCheckpointHeaderFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	l, err := Create(path, immediate)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	appendSync(t, l, "one")
	if err := l.Checkpoint(1); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	seqAfter := l.seq
	l.Crash()

	// Tear the slot the checkpoint just committed (seq%2); the other
	// slot must win and the log must still open.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slot := int(seqAfter % 2)
	raw[slot*headerSlotSize+8] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, _, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("Open with torn header slot: %v", err)
	}
	l2.Close()

	// Both slots torn → the file is unrecoverable and says so.
	raw[(1-slot)*headerSlotSize+8] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path, immediate); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Open with both slots torn = %v, want ErrCorruptRecord", err)
	}
}

func TestGroupCommitCoalesces(t *testing.T) {
	l, err := Create(filepath.Join(t.TempDir(), "test.wal"), Options{GroupCommitWindow: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()

	const writers = 16
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, err := l.Append([]byte(fmt.Sprintf("w%d", i)))
			if err == nil {
				err = l.Sync(lsn)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Appends != writers {
		t.Fatalf("appends = %d, want %d", st.Appends, writers)
	}
	// The window must have coalesced 16 writers into far fewer fsyncs.
	if st.Fsyncs >= writers {
		t.Fatalf("fsyncs = %d for %d writers; group commit did not coalesce", st.Fsyncs, writers)
	}
	if l.DurableLSN() != uint64(writers) {
		t.Fatalf("durable LSN = %d, want %d", l.DurableLSN(), writers)
	}
}

// A writer with the log to itself has nobody to coalesce with: its Sync
// fsyncs at once instead of sleeping the group-commit window first.
func TestLoneLeaderDoesNotWaitWindow(t *testing.T) {
	const window = 400 * time.Millisecond
	l, err := Create(filepath.Join(t.TempDir(), "test.wal"), Options{GroupCommitWindow: window})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	defer l.Close()
	for i := 1; i <= 3; i++ {
		lsn, err := l.Append([]byte("alone"))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d > window/2 {
			t.Fatalf("a lone writer's Sync took %v of a %v window", d, window)
		}
		if st := l.Stats(); st.Fsyncs != int64(i) || st.Coalesced != 0 {
			t.Fatalf("after %d lone syncs: %d fsyncs, %d coalesced waits", i, st.Fsyncs, st.Coalesced)
		}
	}
	// With a record appended behind the leader's own there is company to
	// wait for, and one fsync covers both.
	first, err := l.Append([]byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	second, err := l.Append([]byte("second"))
	if err != nil {
		t.Fatal(err)
	}
	before := l.Stats().Fsyncs
	start := time.Now()
	if err := l.Sync(first); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < window {
		t.Fatalf("a leader with a record behind it fsynced after %v, before the %v window", d, window)
	}
	if l.DurableLSN() != second || l.Stats().Fsyncs != before+1 {
		t.Fatalf("durable LSN %d (want %d) after %d fsyncs (want 1)", l.DurableLSN(), second, l.Stats().Fsyncs-before)
	}
}

func TestSyncAfterCrashFails(t *testing.T) {
	l := create(t)
	lsn, err := l.Append([]byte("doomed"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncNow(lsn); !errors.Is(err, ErrClosed) {
		t.Fatalf("SyncNow after Crash = %v, want ErrClosed", err)
	}
	if _, err := l.Append([]byte("more")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Crash = %v, want ErrClosed", err)
	}
}

func TestEncodeDecodeRecord(t *testing.T) {
	payload := []byte("the payload")
	rec := EncodeRecord(42, 7, payload)
	lsn, epoch, got, n, err := DecodeRecord(rec)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if lsn != 42 || epoch != 7 || !bytes.Equal(got, payload) || n != len(rec) {
		t.Fatalf("DecodeRecord = (%d, %d, %q, %d), want (42, 7, %q, %d)", lsn, epoch, got, n, payload, len(rec))
	}
	// Every single-byte flip must be caught.
	for i := range rec {
		mut := append([]byte(nil), rec...)
		mut[i] ^= 0x01
		if _, _, _, _, err := DecodeRecord(mut); err == nil {
			t.Fatalf("flip at byte %d went undetected", i)
		}
	}
	if _, _, _, _, err := DecodeRecord(rec[:5]); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("short buffer error = %v, want ErrCorruptRecord", err)
	}
}

func TestAppendRejectsOversizedPayload(t *testing.T) {
	l := create(t)
	if _, err := l.Append(make([]byte, MaxRecordLen+1)); err == nil {
		t.Fatal("oversized Append succeeded, want error")
	}
}

func TestOpenEmptyPathCreates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fresh.wal")
	l, rep, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("Open on missing path: %v", err)
	}
	defer l.Close()
	if rep.Records != 0 || rep.TornTail {
		t.Fatalf("fresh scan report = %+v, want empty", rep)
	}
	if lsn, err := l.Append([]byte("x")); err != nil || lsn != 1 {
		t.Fatalf("first Append = (%d, %v), want LSN 1", lsn, err)
	}
}

// TestOpenTornCreate: a crash during Create can leave the file shorter
// than the header region — e.g. only slot 0's 512 bytes persisted. Open
// must reopen it as an empty log (or reject garbage cleanly), never
// panic on the negative record-region size.
func TestOpenTornCreate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn-create.wal")
	l, err := Create(path, immediate)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, headerSlotSize); err != nil {
		t.Fatal(err)
	}

	l2, rep, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("Open after torn create: %v", err)
	}
	if !rep.TornTail || rep.Records != 0 || rep.LastLSN != 0 {
		t.Fatalf("torn-create scan report = %+v, want torn and empty", rep)
	}
	// The recovered log is fully usable: append, sync, reopen, replay.
	if _, err := l2.Append([]byte("alive")); err != nil {
		t.Fatalf("Append after torn create: %v", err)
	}
	appendSync(t, l2, "alive2")
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, rep3, err := Open(path, immediate)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l3.Close()
	if rep3.Records != 2 {
		t.Fatalf("reopen scanned %d records, want 2 (%+v)", rep3.Records, rep3)
	}
	got := collect(t, l3, 0)
	if got[1] != "alive" || got[2] != "alive2" {
		t.Fatalf("replay after torn-create recovery = %v", got)
	}

	// A stub too short to hold any valid header slot errors, not panics.
	stub := filepath.Join(dir, "stub.wal")
	if err := os.WriteFile(stub, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(stub, immediate); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("Open on headerless stub: %v, want ErrCorruptRecord", err)
	}
}

// TestOpenFsyncsBeforePromisingDurable: after Open, Sync on a replayed
// LSN must return success having actually been covered by an fsync —
// the scan issues one — rather than trusting bytes that may only have
// reached the OS cache before the crash.
func TestOpenFsyncsBeforePromisingDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "durable.wal")
	l, err := Create(path, immediate)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("unsynced")); err != nil {
		t.Fatal(err)
	}
	if err := l.Crash(); err != nil { // close WITHOUT fsync
		t.Fatal(err)
	}
	l2, rep, err := Open(path, immediate)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rep.Records != 1 {
		t.Fatalf("scanned %d records, want 1", rep.Records)
	}
	if got := l2.DurableLSN(); got != rep.LastLSN {
		t.Fatalf("DurableLSN = %d, want %d", got, rep.LastLSN)
	}
	// The promise must be backed by a real fsync during Open.
	if err := l2.Sync(rep.LastLSN); err != nil {
		t.Fatalf("Sync on replayed LSN: %v", err)
	}
}
