package stats

import (
	"strings"
	"testing"
	"time"
)

func TestDiskModelEstimate(t *testing.T) {
	m := DiskModel{Name: "test", Seek: 10 * time.Millisecond, Transfer: 0, Compute: time.Microsecond}
	got := m.EstimateMean(Mean{InternalReads: 2, LeafReads: 8, DistanceComps: 1000})
	want := 10*10*time.Millisecond + 1000*time.Microsecond
	if got != want {
		t.Errorf("estimate = %v, want %v", got, want)
	}
}

func TestFrameBudget(t *testing.T) {
	m := HDD2002()
	// The paper's argument: ~20 reads/query on spinning disk cannot
	// sustain a 15-30 fps renderer; ~0.5 reads/query can.
	naive := Mean{LeafReads: 15, InternalReads: 6, DistanceComps: 1300}
	pdq := Mean{LeafReads: 0.4, InternalReads: 0.1, DistanceComps: 60}
	if fps := m.FrameBudget(naive); fps > 15 {
		t.Errorf("naive on 2002 hardware sustains %.1f qps; the paper's premise needs <15", fps)
	}
	if fps := m.FrameBudget(pdq); fps < 30 {
		t.Errorf("PDQ on 2002 hardware sustains only %.1f qps; should exceed 30", fps)
	}
	// On NVMe even naive clears the renderer budget comfortably — the
	// cost model explains why the paper mattered most on its own
	// hardware.
	if fps := NVMe2020().FrameBudget(naive); fps < 100 {
		t.Errorf("naive on NVMe sustains %.1f qps; expected well above the 30 fps budget", fps)
	}
	if m.FrameBudget(Mean{}) != 0 {
		t.Error("zero cost should report zero budget (guard against division blowup)")
	}
}

func TestDiskModelString(t *testing.T) {
	if s := HDD2002().String(); !strings.Contains(s, "hdd-2002") {
		t.Errorf("string = %q", s)
	}
}
