package shard

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dynq/internal/geom"
	"dynq/internal/obs"
	"dynq/internal/pager"
	"dynq/internal/rtree"
)

func memStores(int) (pager.Store, error) { return pager.NewMemStore(), nil }

func testEntries(n int) []rtree.LeafEntry {
	r := rand.New(rand.NewSource(42))
	entries := make([]rtree.LeafEntry, n)
	for i := range entries {
		x, y := r.Float64()*80, r.Float64()*80
		t0 := r.Float64() * 8
		entries[i] = rtree.LeafEntry{
			ID: rtree.ObjectID(i),
			Seg: geom.Segment{
				T:     geom.Interval{Lo: t0, Hi: t0 + 1 + r.Float64()},
				Start: geom.Point{x, y},
				End:   geom.Point{x + 1, y + 1},
			},
		}
	}
	return entries
}

// insertAll applies the entries one update per batch, like point inserts.
func insertAll(t *testing.T, e *Engine, entries []rtree.LeafEntry) {
	t.Helper()
	for _, en := range entries {
		if err := e.ApplyBatch([]Update{{ID: en.ID, Seg: en.Seg}}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(rtree.DefaultConfig(), Options{Shards: 0}, memStores); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	if _, err := New(rtree.DefaultConfig(), Options{Shards: 2, BufferPages: -1}, memStores); err == nil {
		t.Fatal("negative BufferPages accepted")
	}
}

func TestRoutingAndDistribution(t *testing.T) {
	e, err := New(rtree.DefaultConfig(), Options{Shards: 4}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Sequential ids must spread across shards (the point of the hash).
	hit := make([]int, 4)
	for id := 0; id < 1000; id++ {
		hit[e.ShardFor(rtree.ObjectID(id))]++
	}
	for i, n := range hit {
		if n < 100 {
			t.Fatalf("shard %d got only %d of 1000 sequential ids: %v", i, n, hit)
		}
	}

	entries := testEntries(200)
	insertAll(t, e, entries)
	if e.Size() != len(entries) {
		t.Fatalf("Size=%d after %d inserts", e.Size(), len(entries))
	}
	// Every segment must live on its ShardFor shard.
	for i := 0; i < e.Shards(); i++ {
		sh := e.Shard(i)
		if sh.Tree.Size() == 0 {
			t.Fatalf("shard %d is empty", i)
		}
	}

	// Delete routes to the owner shard.
	en := entries[17]
	del := []Update{{ID: en.ID, T0: en.Seg.T.Lo, Delete: true}}
	if err := e.ApplyBatch(del); err != nil {
		t.Fatal(err)
	}
	if e.Size() != len(entries)-1 {
		t.Fatalf("Size=%d after delete", e.Size())
	}
	if err := e.ApplyBatch(del); !errors.Is(err, rtree.ErrNotFound) {
		t.Fatalf("second delete: %v", err)
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	entries := testEntries(300)
	bulk, err := New(rtree.DefaultConfig(), Options{Shards: 3}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer bulk.Close()
	if err := bulk.BulkLoad(entries); err != nil {
		t.Fatal(err)
	}
	if bulk.Size() != len(entries) {
		t.Fatalf("Size=%d after bulk load of %d", bulk.Size(), len(entries))
	}
	if err := bulk.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := bulk.BulkLoad(entries); err == nil {
		t.Fatal("BulkLoad into non-empty engine accepted")
	}

	inc, err := New(rtree.DefaultConfig(), Options{Shards: 3}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()
	insertAll(t, inc, entries)

	ctx := context.Background()
	window := geom.Box{{Lo: 10, Hi: 50}, {Lo: 10, Hi: 50}}
	tw := geom.Interval{Lo: 2, Hi: 4}
	a, err := bulk.Snapshot(ctx, window, tw, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inc.Snapshot(ctx, window, tw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("bulk-loaded and insert-built engines disagree: %d vs %d matches", len(a), len(b))
	}
}

func TestSnapshotLimitAndCancel(t *testing.T) {
	e, err := New(rtree.DefaultConfig(), Options{Shards: 3}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.BulkLoad(testEntries(300)); err != nil {
		t.Fatal(err)
	}
	window := geom.Box{{Lo: 0, Hi: 80}, {Lo: 0, Hi: 80}}
	tw := geom.Interval{Lo: 0, Hi: 10}

	all, err := e.Snapshot(context.Background(), window, tw, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) < 10 {
		t.Fatalf("expected a populous window, got %d matches", len(all))
	}
	limited, err := e.Snapshot(context.Background(), window, tw, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 7 {
		t.Fatalf("limit 7 returned %d matches", len(limited))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Snapshot(ctx, window, tw, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled snapshot: %v", err)
	}
	if _, err := e.KNN(ctx, geom.Point{40, 40}, 3, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled knn: %v", err)
	}
}

func TestCostAccounting(t *testing.T) {
	e, err := New(rtree.DefaultConfig(), Options{Shards: 4}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.BulkLoad(testEntries(400)); err != nil {
		t.Fatal(err)
	}
	e.ResetCost()
	if _, err := e.Snapshot(context.Background(), geom.Box{{Lo: 0, Hi: 80}, {Lo: 0, Hi: 80}}, geom.Interval{Lo: 0, Hi: 10}, 0); err != nil {
		t.Fatal(err)
	}
	total := e.CostSnapshot()
	if total.Reads() == 0 {
		t.Fatal("no reads counted")
	}
	var sum int64
	for i := 0; i < e.Shards(); i++ {
		sum += e.Shard(i).Counters.Snapshot().Reads()
	}
	if sum != total.Reads() {
		t.Fatalf("per-shard reads sum %d != aggregate %d", sum, total.Reads())
	}
}

func TestRegisterMetrics(t *testing.T) {
	e, err := New(rtree.DefaultConfig(), Options{Shards: 2}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.BulkLoad(testEntries(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(context.Background(), geom.Box{{Lo: 0, Hi: 80}, {Lo: 0, Hi: 80}}, geom.Interval{Lo: 0, Hi: 10}, 0); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.Register(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`dynq_shards 2`,
		`dynq_shard_page_reads_total{shard="0"}`,
		`dynq_shard_page_reads_total{shard="1"}`,
		`dynq_shard_segments{shard="0"}`,
		`dynq_shard_task_seconds`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestFanOutRecordsPerShardSpans(t *testing.T) {
	e, err := New(rtree.DefaultConfig(), Options{Shards: 4}, memStores)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	insertAll(t, e, testEntries(300))

	// Without a trace in the context, no spans are recorded.
	tracer := obs.NewTracer(64)
	view := geom.Box{{Lo: 0, Hi: 80}, {Lo: 0, Hi: 80}}
	if _, err := e.Snapshot(context.Background(), view, geom.Interval{Lo: 0, Hi: 10}, 0); err != nil {
		t.Fatal(err)
	}
	if tracer.Len() != 0 {
		t.Fatalf("untraced query recorded %d spans", tracer.Len())
	}

	// With trace context + tracer armed, one child span per shard.
	tc := obs.NewTraceContext()
	ctx := obs.ContextWithTracer(obs.ContextWithTrace(context.Background(), tc), tracer)
	if _, err := e.Snapshot(ctx, view, geom.Interval{Lo: 0, Hi: 10}, 0); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Trace(tc.TraceID.String())
	if len(spans) != e.Shards() {
		t.Fatalf("got %d spans, want %d", len(spans), e.Shards())
	}
	seen := make(map[int]bool)
	for _, s := range spans {
		if s.Op != "snapshot/shard" {
			t.Errorf("span op = %q", s.Op)
		}
		if s.ParentID != tc.SpanID.String() {
			t.Errorf("span parent = %q, want %s", s.ParentID, tc.SpanID)
		}
		if s.Shard < 0 || s.Shard >= e.Shards() || seen[s.Shard] {
			t.Errorf("bad or duplicate shard index %d", s.Shard)
		}
		seen[s.Shard] = true
		if len(s.Stages) != 3 || s.Stages[0].Stage != "pager" || s.Stages[1].Stage != "rtree" || s.Stages[2].Stage != "snapshot" {
			t.Errorf("shard %d stages = %+v", s.Shard, s.Stages)
		}
		if s.Stages[1].Delta.Reads() == 0 {
			t.Errorf("shard %d span shows no rtree reads", s.Shard)
		}
	}

	// KNN spans ride the same trace mechanism.
	if _, err := e.KNN(ctx, geom.Point{40, 40}, 5, 3); err != nil {
		t.Fatal(err)
	}
	knnSpans := 0
	for _, s := range tracer.Trace(tc.TraceID.String()) {
		if s.Op == "knn/shard" {
			knnSpans++
		}
	}
	if knnSpans != e.Shards() {
		t.Errorf("knn spans = %d, want %d", knnSpans, e.Shards())
	}
}

// With one worker (GOMAXPROCS 1) a multi-shard engine starts no pool and
// runs every fanned-out task on the caller's goroutine, in shard order,
// answering as a pooled engine does.
func TestOneWorkerRunsTasksInline(t *testing.T) {
	entries := testEntries(2000)
	build := func() *Engine {
		e, err := New(rtree.DefaultConfig(), Options{Shards: 4}, memStores)
		if err != nil {
			t.Fatal(err)
		}
		insertAll(t, e, entries)
		return e
	}
	pooled := build()
	defer pooled.Close()
	prev := runtime.GOMAXPROCS(1)
	inline := build()
	runtime.GOMAXPROCS(prev)
	defer inline.Close()
	if inline.tasks != nil || inline.Workers() != 1 {
		t.Fatalf("one worker: pool %v, %d workers; want no pool", inline.tasks != nil, inline.Workers())
	}
	var order []int
	if err := inline.fanOut(func(i int, _ *Shard) error { order = append(order, i); return nil }); err != nil || !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("tasks ran in order %v, err %v", order, err)
	}
	q := geom.Box{{Lo: 10, Hi: 50}, {Lo: 10, Hi: 50}}
	var found [2][]rtree.Match
	for i, e := range []*Engine{pooled, inline} {
		ms, err := e.Snapshot(context.Background(), q, geom.Interval{Lo: 2, Hi: 4}, 0)
		if err != nil {
			t.Fatal(err)
		}
		found[i] = ms
	}
	if len(found[0]) == 0 || !reflect.DeepEqual(found[0], found[1]) {
		t.Fatalf("pooled engine found %d, inline one %d, or not the same", len(found[0]), len(found[1]))
	}
}
