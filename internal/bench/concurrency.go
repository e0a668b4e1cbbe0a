package bench

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynq"
	"dynq/internal/motion"
	"dynq/internal/workload"
	"dynq/netq"
)

// ConcurrencyCell is one row of the read-concurrency experiment: the
// same snapshot workload pushed through a netq server by N client
// goroutines sharing one work queue.
type ConcurrencyCell struct {
	Clients int
	Queries int           // total queries executed by this row
	Wall    time.Duration // wall time for the whole batch
	// WindowP50/WindowP99 are the server's rolling-window snapshot
	// latency quantiles (shortest window, in seconds) as reported by the
	// netq telemetry op right after the batch — the server-side view of
	// the latency the clients just generated.
	WindowP50, WindowP99 float64
}

// QPS returns the row's aggregate query throughput.
func (c ConcurrencyCell) QPS() float64 {
	if c.Wall <= 0 {
		return 0
	}
	return float64(c.Queries) / c.Wall.Seconds()
}

// ConcurrencyExperiment loads the paper's population into one DB behind
// a netq server and times an identical snapshot-query batch driven by 1
// and by N concurrent client connections. Every answer is checked
// against a direct (in-process, serial) query of the same window, so the
// speedup row doubles as a correctness check of the concurrent read
// path. Like the sharding experiment, wall-clock speedup needs real
// cores: on a single-CPU host the extra clients only measure queueing.
func ConcurrencyExperiment(cfg Config, clients int) ([]ConcurrencyCell, int, error) {
	if clients < 2 {
		return nil, 0, fmt.Errorf("bench: concurrency experiment needs >= 2 clients, got %d", clients)
	}
	sim := motion.PaperConfig()
	sim.Objects = int(float64(sim.Objects) * cfg.Scale)
	if sim.Objects < 1 {
		sim.Objects = 1
	}
	sim.Seed = cfg.Seed
	segs, err := motion.GenerateSegments(sim)
	if err != nil {
		return nil, 0, err
	}
	db, err := dynq.Open(dynq.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer db.Close()
	updates := make([]dynq.MotionUpdate, len(segs))
	for i, s := range segs {
		updates[i] = dynq.MotionUpdate{ID: s.ObjID, Segment: dynq.Segment{
			T0: s.Seg.T.Lo, T1: s.Seg.T.Hi,
			From: s.Seg.Start, To: s.Seg.End,
		}}
	}
	if err := db.BulkLoadUpdates(updates); err != nil {
		return nil, 0, err
	}

	// One flat batch of snapshot queries across the paper's range sweep,
	// with the serial in-process answer cardinality recorded per query.
	r := rand.New(rand.NewSource(cfg.Seed*101 + int64(clients)))
	var views []dynq.Rect
	var t0s, t1s []float64
	for _, rng := range workload.Ranges {
		q := workload.PaperQuery(0.5, rng)
		for tr := 0; tr < cfg.Trajectories; tr++ {
			g, err := workload.Generate(q, r)
			if err != nil {
				return nil, 0, err
			}
			for i, w := range g.Windows {
				rect := dynq.Rect{Min: make([]float64, len(w)), Max: make([]float64, len(w))}
				for d, iv := range w {
					rect.Min[d], rect.Max[d] = iv.Lo, iv.Hi
				}
				views = append(views, rect)
				t0s = append(t0s, g.Times[i].Lo)
				t1s = append(t1s, g.Times[i].Hi)
			}
		}
	}
	want := make([]int, len(views))
	for i := range views {
		rs, err := db.Snapshot(views[i], t0s[i], t1s[i])
		if err != nil {
			return nil, 0, err
		}
		want[i] = len(rs)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	defer l.Close()
	// Size the read gate for the host and the queue for the client count,
	// so the experiment measures execution parallelism rather than
	// admission-control rejections.
	srv := netq.NewServer(db).WithConcurrency(runtime.GOMAXPROCS(0), 2*clients)
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().String()

	run := func(nClients int) (ConcurrencyCell, error) {
		conns := make([]*netq.Client, nClients)
		for i := range conns {
			cl, err := netq.Dial(addr)
			if err != nil {
				return ConcurrencyCell{}, err
			}
			defer cl.Close()
			conns[i] = cl
		}
		var next atomic.Int64
		errCh := make(chan error, nClients)
		var wg sync.WaitGroup
		start := time.Now()
		for _, cl := range conns {
			wg.Add(1)
			go func(cl *netq.Client) {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(views) {
						return
					}
					rs, err := cl.Snapshot(views[i], t0s[i], t1s[i])
					if err != nil {
						errCh <- err
						return
					}
					if len(rs) != want[i] {
						errCh <- fmt.Errorf("bench: concurrent snapshot %d returned %d results, serial run had %d",
							i, len(rs), want[i])
						return
					}
				}
			}(cl)
		}
		wg.Wait()
		wall := time.Since(start)
		close(errCh)
		for err := range errCh {
			return ConcurrencyCell{}, err
		}
		cell := ConcurrencyCell{Clients: nClients, Queries: len(views), Wall: wall}
		// The server-side latency picture for this batch, through the same
		// wire op dqtop uses.
		tel, err := conns[0].Telemetry()
		if err != nil {
			return ConcurrencyCell{}, err
		}
		for _, op := range tel.Ops {
			if op.Op == string(netq.OpSnapshot) && len(op.Windows) > 0 {
				cell.WindowP50 = op.Windows[0].P50
				cell.WindowP99 = op.Windows[0].P99
			}
		}
		return cell, nil
	}

	// Untimed warmup settles connection setup and first-touch costs out
	// of the 1-client baseline.
	if _, err := run(1); err != nil {
		return nil, 0, err
	}
	var cells []ConcurrencyCell
	for _, n := range []int{1, clients} {
		c, err := run(n)
		if err != nil {
			return nil, 0, err
		}
		cells = append(cells, c)
	}
	return cells, len(segs), nil
}
