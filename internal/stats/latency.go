package stats

import (
	"fmt"
	"time"
)

// DiskModel converts the paper's disk-access counts into estimated wall
// time on a concrete device, so experiment output can be read both ways
// (the counts are the ground truth; the model is a lens).
type DiskModel struct {
	Name     string
	Seek     time.Duration // positioning cost per random page read
	Transfer time.Duration // transfer cost per 4 KiB page
	Compute  time.Duration // cost per distance computation
}

// HDD2002 approximates the hardware of the paper's era: ~9 ms average
// positioning, ~25 MB/s sequential transfer, ~100 ns per geometric
// predicate on a ~1 GHz CPU.
func HDD2002() DiskModel {
	return DiskModel{Name: "hdd-2002", Seek: 9 * time.Millisecond, Transfer: 160 * time.Microsecond, Compute: 100 * time.Nanosecond}
}

// NVMe2020 approximates a modern NVMe SSD: ~80 µs random read latency,
// negligible per-page transfer at 4 KiB, ~10 ns per predicate.
func NVMe2020() DiskModel {
	return DiskModel{Name: "nvme-2020", Seek: 80 * time.Microsecond, Transfer: 2 * time.Microsecond, Compute: 10 * time.Nanosecond}
}

// EstimateMean converts per-query mean costs into estimated per-query
// time.
func (m DiskModel) EstimateMean(mean Mean) time.Duration {
	io := time.Duration(mean.Reads() * float64(m.Seek+m.Transfer))
	cpu := time.Duration(mean.DistanceComps * float64(m.Compute))
	return io + cpu
}

// FrameBudget reports how many queries per second the modeled device
// sustains at the given per-query mean cost — the paper's motivating
// constraint is the renderer's 15-30 snapshot queries per second.
func (m DiskModel) FrameBudget(mean Mean) float64 {
	d := m.EstimateMean(mean)
	if d <= 0 {
		return 0
	}
	return float64(time.Second) / float64(d)
}

// String renders the model parameters.
func (m DiskModel) String() string {
	return fmt.Sprintf("%s (seek %v, transfer %v/page, %v/predicate)", m.Name, m.Seek, m.Transfer, m.Compute)
}
