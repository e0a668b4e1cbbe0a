package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestJournalRingAndSince(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 6; i++ {
		j.Record(EventOverloadBurst, SeverityWarn, fmt.Sprintf("burst %d", i),
			map[string]string{"n": fmt.Sprint(i)})
	}
	if got := j.Total(); got != 6 {
		t.Fatalf("total = %d, want 6", got)
	}
	recent := j.Recent(0)
	if len(recent) != 4 {
		t.Fatalf("recent len = %d, want 4 (ring capacity)", len(recent))
	}
	if recent[0].Seq != 5 || recent[3].Seq != 2 {
		t.Errorf("recent seqs = %d..%d, want newest-first 5..2", recent[0].Seq, recent[3].Seq)
	}
	if got := j.Recent(2); len(got) != 2 || got[0].Seq != 5 {
		t.Errorf("recent(2) = %v", got)
	}

	since := j.Since(4)
	if len(since) != 2 || since[0].Seq != 4 || since[1].Seq != 5 {
		t.Errorf("since(4) = %v, want seqs 4,5 oldest-first", since)
	}
	// A resume point that has rotated out starts at the oldest survivor.
	if got := j.Since(0); len(got) != 4 || got[0].Seq != 2 {
		t.Errorf("since(0) = %v, want 4 events starting at seq 2", got)
	}
	if counts := j.CountsByType(); counts[EventOverloadBurst] != 6 {
		t.Errorf("by-type count = %v, want 6 overload bursts (rotation does not forget totals)", counts)
	}
}

func TestJournalConcurrent(t *testing.T) {
	j := NewJournal(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				j.Record(EventChecksumFailure, SeverityError, "boom", nil)
				if i%100 == 0 {
					j.Recent(10)
					j.Since(0)
					j.CountsByType()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := j.Total(); got != 4000 {
		t.Errorf("total = %d, want 4000", got)
	}
}

func TestDefaultJournalIsProcessWide(t *testing.T) {
	before := DefaultJournal().Total()
	DefaultJournal().Record(EventServerStart, SeverityInfo, "test marker", nil)
	es := DefaultJournal().Since(before)
	found := false
	for _, e := range es {
		if e.Message == "test marker" {
			found = true
		}
	}
	if !found {
		t.Error("marker event not visible through DefaultJournal")
	}
}

func TestSlowLogThresholdAndRing(t *testing.T) {
	l := NewSlowLog(3, 100*time.Millisecond)
	fast := Span{Op: "snapshot", WallNS: int64(time.Millisecond)}
	slow := Span{Op: "knn", WallNS: int64(time.Second)}
	if l.Record(fast) {
		t.Error("fast span captured below threshold")
	}
	for i := 0; i < 5; i++ {
		s := slow
		s.Results = i
		if !l.Record(s) {
			t.Fatalf("slow span %d not captured", i)
		}
	}
	if got := l.Captured(); got != 5 {
		t.Fatalf("captured = %d, want 5", got)
	}
	recent := l.Recent(0)
	if len(recent) != 3 {
		t.Fatalf("recent len = %d, want 3 (ring capacity)", len(recent))
	}
	if recent[0].Span.Results != 4 || recent[2].Span.Results != 2 {
		t.Errorf("recent order = %d..%d, want newest-first 4..2",
			recent[0].Span.Results, recent[2].Span.Results)
	}
	if recent[0].ThresholdNS != 100*time.Millisecond {
		t.Errorf("entry threshold = %v, want 100ms", recent[0].ThresholdNS)
	}

	// Negative disables capture; zero restores the default.
	l.SetThreshold(-1)
	if l.Record(slow) {
		t.Error("span captured while disabled")
	}
	l.SetThreshold(0)
	if l.Threshold() != DefSlowThreshold {
		t.Errorf("threshold = %v, want default %v", l.Threshold(), DefSlowThreshold)
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(32, time.Microsecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record(Span{Op: "snapshot", WallNS: int64(time.Millisecond)})
				if i%100 == 0 {
					l.Recent(5)
				}
			}
		}()
	}
	wg.Wait()
	if got := l.Captured(); got != 4000 {
		t.Errorf("captured = %d, want 4000", got)
	}
}

func TestCollectorSamplesAndSources(t *testing.T) {
	c := NewCollector(time.Hour, 4) // interval irrelevant: we sample by hand
	depth := 7.0
	c.Source("queue_depth", func() float64 { return depth })

	s := c.SampleOnce()
	if s.Goroutines <= 0 || s.HeapAllocBytes == 0 {
		t.Errorf("sample = %+v, want live runtime readings", s)
	}
	if s.Extra["queue_depth"] != 7 {
		t.Errorf("extra = %v, want queue_depth 7", s.Extra)
	}
	depth = 9
	c.SampleOnce()
	latest, ok := c.Latest()
	if !ok || latest.Extra["queue_depth"] != 9 {
		t.Errorf("latest = %+v ok=%v, want queue_depth 9", latest, ok)
	}
	for i := 0; i < 10; i++ {
		c.SampleOnce()
	}
	if got := len(c.Samples()); got != 4 {
		t.Errorf("ring length = %d, want capacity 4", got)
	}

	// Register exposes the latest readings as gauges.
	reg := NewRegistry()
	c.Register(reg)
	exp := reg.Export()
	if exp["dynq_goroutines"].(float64) <= 0 {
		t.Errorf("dynq_goroutines gauge = %v, want > 0", exp["dynq_goroutines"])
	}
	if exp["dynq_runtime_queue_depth"].(float64) != 9 {
		t.Errorf("dynq_runtime_queue_depth gauge = %v, want 9", exp["dynq_runtime_queue_depth"])
	}
}

func TestCollectorStartStop(t *testing.T) {
	c := NewCollector(time.Millisecond, 64)
	c.Start()
	c.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for len(c.Samples()) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(c.Samples()); got < 3 {
		t.Fatalf("samples after run = %d, want >= 3", got)
	}
	c.Stop()
	c.Stop() // idempotent
	n := len(c.Samples())
	time.Sleep(5 * time.Millisecond)
	if got := len(c.Samples()); got != n {
		t.Errorf("samples grew after Stop: %d -> %d", n, got)
	}
}
