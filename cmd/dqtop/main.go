// Command dqtop renders a live terminal view of one or more dqserver
// instances, polled over the netq telemetry op (no HTTP endpoint
// needed): per-op rolling-window and cumulative latency percentiles,
// SLO attainment and error-budget burn, runtime health, recent
// operational events, and — when the server has a WAL armed — an ingest
// panel (appends/s, bytes/s, fsync p50/p99, coalesce ratio, batch size,
// checkpoint lag, log size). A server running the self-healing
// maintenance loop adds a maint panel (auto-checkpoints, WAL pressure,
// scrub progress, probe/heal counts), and a degraded server gets a
// prominent banner with the age of the current read-only episode.
//
// The telemetry op bypasses the server's read admission control, so
// dqtop keeps reporting while a server is shedding query load — which
// is exactly when its numbers matter.
//
// Usage:
//
//	dqtop [-refresh 2s] [-once] [-probe] [-write-probe] [-events 5] addr [addr...]
//
// -once prints a single snapshot and exits (for scripts and CI
// artifacts); -probe issues one stats query per refresh against each
// server so an otherwise idle server still shows live windows;
// -write-probe additionally sends a small self-canceling write batch per
// refresh, exercising the full durable write path (WAL append, group
// commit, tree apply) so the ingest panel shows live fsync windows.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"dynq"
	"dynq/internal/obs"
	"dynq/netq"
)

func main() {
	var (
		refresh    = flag.Duration("refresh", 2*time.Second, "poll and redraw interval")
		once       = flag.Bool("once", false, "print one snapshot and exit")
		probe      = flag.Bool("probe", false, "issue a stats query per refresh so idle servers show live windows")
		writeProbe = flag.Bool("write-probe", false, "send a self-canceling write batch per refresh so the ingest panel shows live windows")
		events     = flag.Int("events", 5, "recent journal events to show per server")
	)
	flag.Parse()
	addrs := flag.Args()
	if len(addrs) == 0 {
		fmt.Fprintln(os.Stderr, "usage: dqtop [-refresh 2s] [-once] [-probe] [-write-probe] [-events 5] addr [addr...]")
		os.Exit(2)
	}

	clients := make(map[string]*netq.Client, len(addrs))
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	for {
		var out strings.Builder
		if !*once {
			out.WriteString("\x1b[2J\x1b[H") // clear screen, home cursor
		}
		fmt.Fprintf(&out, "dqtop  %s  %d server(s)  refresh %v\n",
			time.Now().Format("15:04:05"), len(addrs), *refresh)
		for _, addr := range addrs {
			tel, err := poll(clients, addr, *probe, *writeProbe)
			if err != nil {
				fmt.Fprintf(&out, "\n── %s ", addr)
				out.WriteString(strings.Repeat("─", max(1, 64-len(addr))))
				fmt.Fprintf(&out, "\n  unreachable: %v\n", err)
				continue
			}
			render(&out, addr, tel, *events)
		}
		os.Stdout.WriteString(out.String())
		if *once {
			return
		}
		time.Sleep(*refresh)
	}
}

// poll fetches one server's telemetry, dialing (or redialing) lazily so
// a server that restarts mid-session comes back on the next refresh.
func poll(clients map[string]*netq.Client, addr string, probe, writeProbe bool) (netq.Telemetry, error) {
	c := clients[addr]
	if c == nil {
		var err error
		c, err = netq.DialWithOptions(addr, netq.DialOptions{Reconnect: true})
		if err != nil {
			return netq.Telemetry{}, err
		}
		clients[addr] = c
	}
	if probe {
		// Deliberately before the snapshot so the probe's own latency
		// lands in the windows dqtop is about to display.
		if _, err := c.Stats(); err != nil {
			c.Close()
			delete(clients, addr)
			return netq.Telemetry{}, err
		}
	}
	if writeProbe {
		// A server-side rejection (degraded read-only mode, a dims
		// mismatch) is the server's answer, not a transport failure:
		// keep polling, and let the per-op error counts show it.
		writeProbeBatch(c)
	}
	tel, err := c.Telemetry()
	if err != nil {
		c.Close()
		delete(clients, addr)
		return netq.Telemetry{}, err
	}
	return tel, nil
}

// writeProbeBatch sends the -write-probe payload: paired insert+delete
// updates for a reserved id range, applied in one batch. The deletes
// consume the batch's own inserts, so the index is logically unchanged
// while the write still runs the full durable path — one WAL record,
// one group-commit wait, real tree churn.
func writeProbeBatch(c *netq.Client) error {
	const n = 8
	const probeBase = uint64(1) << 60
	ups := make([]dynq.MotionUpdate, 0, 2*n)
	for i := uint64(0); i < n; i++ {
		ups = append(ups, dynq.MotionUpdate{ID: probeBase + i, Segment: dynq.Segment{
			T0: 0, T1: 1, From: []float64{0, 0}, To: []float64{1, 1},
		}})
	}
	for i := uint64(0); i < n; i++ {
		ups = append(ups, dynq.MotionUpdate{ID: probeBase + i, Segment: dynq.Segment{T0: 0}, Delete: true})
	}
	return c.ApplyUpdates(ups)
}

func render(out *strings.Builder, addr string, tel netq.Telemetry, eventLimit int) {
	fmt.Fprintf(out, "\n── %s ", addr)
	out.WriteString(strings.Repeat("─", max(1, 64-len(addr))))
	out.WriteByte('\n')

	state := "healthy"
	if tel.Degraded {
		state = "DEGRADED (read-only)"
	}
	fmt.Fprintf(out, "  up %s  %s  conns %d  inflight %d  queued %d  slow %d (>%v)  events %d\n",
		time.Duration(tel.UptimeSeconds*float64(time.Second)).Round(time.Second),
		state, tel.ActiveConns, tel.InflightOps, tel.ReadQueueDepth,
		tel.SlowCaptured, tel.SlowThreshold, tel.EventsTotal)
	if tel.Degraded {
		// A degraded server is the one the operator is staring at: give
		// it its own banner with how long writes have been refused.
		age := ""
		if m := tel.Maintenance; m != nil && m.DegradedSeconds > 0 {
			age = fmt.Sprintf(" for %s", time.Duration(m.DegradedSeconds*float64(time.Second)).Round(time.Second))
		} else if since := lastEventTime(tel.Events, obs.EventDegradedEnter); !since.IsZero() {
			age = fmt.Sprintf(" for %s", time.Since(since).Round(time.Second))
		}
		fmt.Fprintf(out, "  !! DEGRADED%s — rejecting writes until a recovery probe succeeds\n", age)
	}
	if r := tel.Runtime; r != nil {
		fmt.Fprintf(out, "  goroutines %d  heap %s  gc %d (last pause %v)  buffer %d frames\n",
			r.Goroutines, sizeof(r.HeapAllocBytes), r.NumGC, r.LastGCPause.Round(time.Microsecond),
			tel.BufferFrames)
	}

	if len(tel.Ops) > 0 {
		tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
		fmt.Fprint(tw, "  op\tcount\terr\tp50\tp99\t")
		for _, w := range tel.Ops[0].Windows {
			fmt.Fprintf(tw, "p99/%v\t", w.Window)
		}
		fmt.Fprintln(tw)
		for _, op := range tel.Ops {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%s\t%s\t", op.Op, op.Count, op.Errors, ms(op.P50), ms(op.P99))
			for _, w := range op.Windows {
				if w.Count == 0 {
					fmt.Fprint(tw, "-\t")
				} else {
					fmt.Fprintf(tw, "%s\t", ms(w.P99))
				}
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()
	}

	if w := tel.WAL; w != nil {
		// Throughput comes from the shortest append-bytes window: count
		// per second and byte sum per second over that span.
		var appendsPerSec, bytesPerSec float64
		if len(w.AppendBytes.Windows) > 0 {
			win := w.AppendBytes.Windows[0]
			if secs := win.Window.Seconds(); secs > 0 {
				appendsPerSec = float64(win.Count) / secs
				bytesPerSec = win.Sum / secs
			}
		}
		// Prefer the live window's quantiles; an idle window falls back
		// to the cumulative picture so the panel never goes blank.
		fsyncP50, fsyncP99 := w.FsyncLatency.P50, w.FsyncLatency.P99
		if len(w.FsyncLatency.Windows) > 0 && w.FsyncLatency.Windows[0].Count > 0 {
			fsyncP50, fsyncP99 = w.FsyncLatency.Windows[0].P50, w.FsyncLatency.Windows[0].P99
		}
		batchP50 := w.BatchSize.P50
		if len(w.BatchSize.Windows) > 0 && w.BatchSize.Windows[0].Count > 0 {
			batchP50 = w.BatchSize.Windows[0].P50
		}
		logs := ""
		if w.Logs > 1 {
			logs = fmt.Sprintf(" (%d logs)", w.Logs)
		}
		fmt.Fprintf(out, "  wal%s %s (%d live recs)  %.1f appends/s  %s/s  fsync p50 %s p99 %s\n",
			logs, sizeof(uint64(w.LogBytes)), w.CheckpointLag,
			appendsPerSec, sizeof(uint64(bytesPerSec)), ms(fsyncP50), ms(fsyncP99))
		fmt.Fprintf(out, "      coalesce %.0f%%  batch p50 %.1f  ckpts %d  lsn %d (durable %d, ckpt %d)\n",
			w.CoalesceRatio*100, batchP50, w.Checkpoints,
			w.LastLSN, w.DurableLSN, w.CheckpointLSN)
	}

	if m := tel.Maintenance; m != nil {
		fmt.Fprintf(out, "  maint ckpts %d (%d failed)  wal pressure %.0f%%  scrub %d pages / %d passes / %d corrupt  downtime %s\n",
			m.Checkpoints, m.CheckpointFailures, m.CheckpointPressure*100,
			m.ScrubPages, m.ScrubPasses, m.ScrubCorruptions,
			time.Duration(m.DowntimeTotalSeconds*float64(time.Second)).Round(time.Millisecond))
		if m.Degraded {
			fmt.Fprintf(out, "        probing: %d probes (%d failed)", m.Probes, m.ProbeFailures)
			if m.NextProbeInSeconds > 0 {
				fmt.Fprintf(out, "  next in %s", time.Duration(m.NextProbeInSeconds*float64(time.Second)).Round(time.Millisecond))
			}
			if m.LastProbeError != "" {
				fmt.Fprintf(out, "  last: %s", m.LastProbeError)
			}
			out.WriteByte('\n')
		} else if m.Heals > 0 {
			fmt.Fprintf(out, "        healed %d episode(s) with %d probes (%d failed)\n",
				m.Heals, m.Probes, m.ProbeFailures)
		}
		if m.LastScrubError != "" {
			fmt.Fprintf(out, "        scrub error: %s\n", m.LastScrubError)
		}
	}

	for _, slo := range tel.SLOs {
		status := "ok"
		if !slo.Met {
			status = "VIOLATED"
		}
		fmt.Fprintf(out, "  slo %-14s %s  avail %.4f (burn %.1f)  <%v %.4f (burn %.1f)  n=%d\n",
			slo.Op, status,
			slo.Availability, slo.AvailabilityBurn,
			time.Duration(slo.LatencyTargetSeconds*float64(time.Second)), slo.LatencyAttainment, slo.LatencyBurn,
			slo.Total)
	}

	for i, ev := range tel.Events {
		if i >= eventLimit {
			fmt.Fprintf(out, "  … %d more events\n", len(tel.Events)-i)
			break
		}
		fmt.Fprintf(out, "  [%s] %s %s: %s\n",
			ev.Time.Format("15:04:05"), ev.Severity, ev.Type, ev.Message)
	}
}

// lastEventTime returns the timestamp of the newest event of the given
// type in the snapshot (events arrive newest first), or the zero time.
func lastEventTime(events []obs.Event, typ obs.EventType) time.Time {
	for _, ev := range events {
		if ev.Type == typ {
			return ev.Time
		}
	}
	return time.Time{}
}

// ms renders a latency in seconds as a compact duration string.
func ms(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}

func sizeof(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
