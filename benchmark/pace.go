package main

import (
	"encoding/binary"
	"math"
	"time"
)

// The sandbox this benchmark runs on is shared, and its speed wanders:
// a fixed loop pinned to one CPU, with no steal time reported, runs
// 2 700 to 3 300 times a second within one minute, in stretches of a few
// seconds (a neighbour on the core's other hardware thread). The same
// binary on the same seed flies 9.3 k to 12.8 k fly-mem frames/s within
// an hour, and ten runs in a row straddle two states more often than not.
// No amount of work per run averages that out, and a gate of a tenth
// cannot sit on top of it. So the harness carries a yardstick: a fixed
// slice of work of its own — copy a 4 KiB page out of an 8 MiB pool,
// parse it into freshly allocated slices, compare — run after every tick
// and every write batch, about half a millisecond every 15 ms. A timed
// call is divided by how much slower than referenceSlice the last
// paceWindow slices around it ran. The gated timings are therefore time
// on the undisturbed reference sandbox; every run also prints the timings
// as measured and the factor itself. The slice is harness code and never
// changes with the program, so a change to the program moves the reported
// timings exactly as it moves the raw ones.
//
// Only time the CPU sets is scaled. live-wire's write latencies follow
// the feeder's schedule and the queue behind it, and the frame budget of
// frame_on_time_share is a viewer's: both stay on the wall clock.
// ingest-wal's batches are scaled although each waits for the log's 2 ms
// commit window and an fsync: that wait is an eighth of a 21 ms batch, so
// scaling it by a factor of 1.0 to 1.2 is off by at most 2.4 %, while the
// unscaled rate fell by 19 % in a run the yardstick read ×1.21.
type pacer struct {
	pool   [][]byte
	next   uint32
	slices []float64 // microseconds per slice, whole run
	sum    float64
}

// referenceSlice is what one slice takes, in microseconds, on the
// reference sandbox when nothing disturbs it.
const referenceSlice = 430.0

const (
	pacerPages      = 2048 // 8 MiB: larger than the CPU's private caches, like the trees
	pagesPerSlice   = 150
	entriesPerPage  = 60
	floatsPerEntry  = 6
	pacerEntryBytes = floatsPerEntry * 4
)

func newPacer() *pacer {
	p := &pacer{pool: make([][]byte, pacerPages), next: 777}
	for i := range p.pool {
		p.pool[i] = make([]byte, pageSize)
		for j := 0; j < pageSize; j += 4 {
			binary.LittleEndian.PutUint32(p.pool[i][j:], math.Float32bits(float32(i+j)))
		}
	}
	return p
}

// slice runs one slice of the yardstick and records how long it took.
func (p *pacer) slice() {
	if p == nil {
		return
	}
	at := time.Now()
	var sum float64
	for i := 0; i < pagesPerSlice; i++ {
		p.next = p.next*1664525 + 1013904223
		page := make([]byte, pageSize)
		copy(page, p.pool[int(p.next>>8)%len(p.pool)])
		entries := make([][]float64, 0, entriesPerPage)
		for e := 0; e < entriesPerPage; e++ {
			f := make([]float64, floatsPerEntry)
			for k := range f {
				f[k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(page[8+e*pacerEntryBytes+k*4:])))
			}
			entries = append(entries, f)
		}
		for _, f := range entries {
			if f[0] < f[3] {
				sum += f[1]
			}
		}
	}
	p.sum += sum
	p.slices = append(p.slices, us(time.Since(at)))
}

// paceWindow is how many of the latest slices set the factor of a timed
// call: their median, so a slice that caught a collection does not
// count. About a quarter of a second, well inside one stretch of the
// sandbox's speed.
const paceWindow = 15

// factor is how many times slower than the reference the latest slices
// ran; 1 without a pacer.
func (p *pacer) factor() float64 {
	if p == nil {
		return 1
	}
	return p.factorSince(max(0, len(p.slices)-paceWindow))
}

// mark and factorSince bracket a stretch of the run, such as one set-up.
func (p *pacer) mark() int {
	if p == nil {
		return 0
	}
	return len(p.slices)
}

func (p *pacer) factorSince(mark int) float64 {
	if p == nil || mark >= len(p.slices) {
		return 1
	}
	return median(p.slices[mark:]) / referenceSlice
}
