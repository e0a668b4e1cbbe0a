package dynq

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

// wideView covers the whole test population.
var wideView = Rect{Min: []float64{0, 0}, Max: []float64{110, 110}}

// TestQueryCancellation: the context-aware queries stop on a cancelled
// context and on an expired deadline, on one unit and on several.
func TestQueryCancellation(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	db, sdb := equivPair(t, randomPopulation(r, 200, 8), 3, true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancelExpired := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancelExpired()
	<-expired.Done()
	for _, c := range []struct {
		ctx  context.Context
		want error
	}{{ctx, context.Canceled}, {expired, context.DeadlineExceeded}} {
		if _, err := db.SnapshotCtx(c.ctx, wideView, 1, 3); !errors.Is(err, c.want) {
			t.Fatalf("db.SnapshotCtx: %v, want %v", err, c.want)
		}
		if _, err := sdb.SnapshotCtx(c.ctx, wideView, 1, 3); !errors.Is(err, c.want) {
			t.Fatalf("sharded.SnapshotCtx: %v, want %v", err, c.want)
		}
		if _, err := db.KNNCtx(c.ctx, []float64{50, 50}, 2, 5); !errors.Is(err, c.want) {
			t.Fatalf("db.KNNCtx: %v, want %v", err, c.want)
		}
		if _, err := sdb.KNNCtx(c.ctx, []float64{50, 50}, 2, 5); !errors.Is(err, c.want) {
			t.Fatalf("sharded.KNNCtx: %v, want %v", err, c.want)
		}
	}
}
