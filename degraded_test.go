package dynq

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
)

// TestDegradedModeTripsAfterConsecutiveWriteFailures: storage write
// failures must flip the database to read-only at the threshold, reads
// must keep working, and clearing the flag restores writes.
func TestDegradedModeTripsAfterConsecutiveWriteFailures(t *testing.T) {
	path := filepath.Join(t.TempDir(), "degrade.dynq")
	if err := createFiles(singleLayout(path), 1, false, 0, nil); err != nil {
		t.Fatalf("seed: %v", err)
	}
	db, faults, err := openFaulted(path, recoverSpec{}, nil)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.crash()

	if err := db.Insert(1, Segment{T0: 0, T1: 1, From: []float64{1, 1}, To: []float64{1, 1}}); err != nil {
		t.Fatalf("healthy insert: %v", err)
	}

	faults.ArmWrites(1)
	faults.ArmAllocs(1)
	var sawReadOnly bool
	for i := 0; i < 10; i++ {
		err := db.Insert(ObjectID(100+i), Segment{T0: 0, T1: 1, From: []float64{2, 2}, To: []float64{2, 2}})
		if err == nil {
			t.Fatalf("insert %d succeeded despite armed write faults", i)
		}
		if errors.Is(err, ErrReadOnly) {
			sawReadOnly = true
			if i < degradeAfter-1 {
				t.Fatalf("degraded after only %d failures, threshold is %d", i+1, degradeAfter)
			}
			break
		}
	}
	if !sawReadOnly {
		t.Fatal("10 consecutive write failures never tripped degraded mode")
	}
	if !db.Degraded() {
		t.Fatal("Degraded() is false after the trip")
	}

	// Reads still answer while degraded.
	if _, err := db.Snapshot(Rect{Min: []float64{0, 0}, Max: []float64{10, 10}}, 0, 1); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	// Sync is a mutation: gated too.
	if err := db.Sync(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("Sync while degraded: got %v, want ErrReadOnly", err)
	}

	faults.Disarm()
	db.SetReadOnly(false)
	if db.Degraded() {
		t.Fatal("SetReadOnly(false) did not clear the flag")
	}
	if err := db.Insert(200, Segment{T0: 0, T1: 1, From: []float64{3, 3}, To: []float64{3, 3}}); err != nil {
		t.Fatalf("insert after clearing degraded mode: %v", err)
	}
}

// TestDeleteNotFoundDoesNotDegrade: a missing segment is an answer, not
// a storage failure — it must never advance the degrade counter.
func TestDeleteNotFoundDoesNotDegrade(t *testing.T) {
	db, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2*degradeAfter; i++ {
		err := db.ApplyUpdates(context.Background(), []MotionUpdate{{ID: ObjectID(i), Segment: Segment{T0: 0}, Delete: true}}, WriteOptions{})
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("delete of absent segment: got %v, want ErrNotFound", err)
		}
	}
	if db.Degraded() {
		t.Fatal("ErrNotFound deletes degraded the database")
	}
}
