package netq

import (
	"net"
	"testing"

	"dynq"
)

func BenchmarkSnapshotRoundTrip(b *testing.B) {
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		x := float64(i % 100)
		err := db.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 100,
			From: []float64{x, 50}, To: []float64{x, 50},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	l, stop := listen(b, db)
	defer stop()
	cl, err := Dial(l)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	view := dynq.Rect{Min: []float64{40, 40}, Max: []float64{60, 60}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Snapshot(view, 10, 11); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPDQFetchRoundTrip times one frame of a live predictive session
// on a 2-unit engine over loopback: the request viewers send most.
func BenchmarkPDQFetchRoundTrip(b *testing.B) {
	db, err := dynq.OpenSharded(dynq.ShardOptions{Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		x, y := float64(i%100), float64(i/20)
		err := db.Insert(dynq.ObjectID(i), dynq.Segment{T0: 0, T1: 1000, From: []float64{x, y}, To: []float64{x + 1, y}})
		if err != nil {
			b.Fatal(err)
		}
	}
	l, stop := listen(b, db)
	defer stop()
	cl, err := Dial(l)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	// A 10×10 window sweeping the population in 100 frames of 0.5.
	const frames = 100
	path := []dynq.Waypoint{
		{T: 0, View: dynq.Rect{Min: []float64{0, 45}, Max: []float64{10, 55}}},
		{T: frames / 2, View: dynq.Rect{Min: []float64{90, 45}, Max: []float64{100, 55}}},
	}
	results := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := i % frames
		if f == 0 {
			if err := cl.StartPredictive(path, true); err != nil {
				b.Fatal(err)
			}
		}
		rs, err := cl.FetchPredictive(float64(f)/2, float64(f+1)/2)
		if err != nil {
			b.Fatal(err)
		}
		results += len(rs)
	}
	b.ReportMetric(float64(results)/float64(b.N), "results/op")
}

func listen(b *testing.B, db dynq.Database) (addr string, stop func()) {
	b.Helper()
	// Reuse the test helper shape without *testing.T.
	srv := NewServer(db)
	l, err := netListen()
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	return l.Addr().String(), func() {
		l.Close()
		srv.Close()
	}
}

func netListen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
