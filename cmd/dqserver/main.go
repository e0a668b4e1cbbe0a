// Command dqserver serves a dynq database over TCP using the netq
// protocol. It either reopens a database file built by dqload or
// generates the paper's synthetic workload in memory at startup.
//
// With -metrics it also serves an observability endpoint:
//
//	/metrics          Prometheus text format (per-op request counts,
//	                  latency histograms, rolling-window quantiles,
//	                  buffer-pool hit ratio, runtime gauges, ...)
//	/debug/trace      recent query spans (per-stage cost deltas) as JSONL
//	/debug/slow       operations (reads and writes) that exceeded
//	                  -slow-query, spans included; ?op= filters
//	/debug/events     the operational event journal (recovery, degraded
//	                  mode, overload bursts, checksum failures)
//	/debug/telemetry  the full stats snapshot (same payload as the netq
//	                  telemetry op that dqtop polls)
//	/debug/pprof/*    the standard runtime profiles
//
// A -db file is opened through recovery: every reachable page is
// verified, and what was checked and repaired is journaled as a
// recovery event (/debug/events) before the server takes traffic.
//
// SIGINT/SIGTERM shut the server down gracefully: it logs a final
// cumulative cost summary and syncs the database before closing it, so
// every acknowledged write is in the page files and an armed log is
// truncated. A second signal forces exit.
//
// Diagnostics go to stderr through log/slog; -log-format json makes them
// machine-parseable and request-scoped lines carry trace/span ids.
//
// With -wal a write-ahead log sidecar (<db>.wal) is armed: every
// acknowledged write is durable across a crash, and the next open
// replays whatever the last page commit missed. An existing sidecar is
// detected and replayed even without the flag. Combining -db with
// -shards N serves a sharded on-disk database — page files
// <db>.shard0..N-1, one log sidecar each under -wal — created fresh
// when absent and recovered (every shard verified, every log replayed)
// when present; the shard count must match the one the files were
// created with.
//
// A -db database runs the self-healing maintenance loop
// (dynq.Options.Maintenance): it checkpoints a log whose live bytes reach
// its bound, scrubs the committed pages in the background, and probes a
// degraded store until a durable write round-trips, then returns the
// server to read-write on its own.
//
// Usage:
//
//	dqserver [-addr :7207] [-metrics :7208] [-db db.dynq [-shards N] | -scale F -seed N [-dual] [-shards N]]
//	         [-wal] [-slow-query 250ms] [-log-level info] [-log-format text]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dynq"
	"dynq/internal/motion"
	"dynq/internal/obs"
	"dynq/netq"
)

// options holds the parsed command line.
type options struct {
	addr      string
	metrics   string
	path      string
	scale     float64
	seed      int64
	dual      bool
	shards    int
	walArm    bool
	slowQuery time.Duration
	logLevel  string
	logFormat string
}

// newFlags declares every dqserver flag on a fresh set bound to o.
func newFlags(o *options) *flag.FlagSet {
	fs := flag.NewFlagSet("dqserver", flag.ExitOnError)
	fs.StringVar(&o.addr, "addr", ":7207", "listen address")
	fs.StringVar(&o.metrics, "metrics", "", "observability listen address (e.g. :7208); empty disables")
	fs.StringVar(&o.path, "db", "", "database file to serve (from dqload)")
	fs.Float64Var(&o.scale, "scale", 0.1, "synthetic population scale when no -db is given")
	fs.Int64Var(&o.seed, "seed", 1, "synthetic workload seed")
	fs.BoolVar(&o.dual, "dual", false, "dual temporal axes for the synthetic index")
	fs.IntVar(&o.shards, "shards", 1, "partition the index across N parallel shards; with -db, serves the sharded file set <db>.shard<i> (created fresh or recovered)")
	fs.BoolVar(&o.walArm, "wal", false, "arm a write-ahead log for durable writes; requires -db (sidecar <db>.wal, or one <db>.shard<i>.wal per shard with -shards)")
	fs.DurationVar(&o.slowQuery, "slow-query", obs.DefSlowThreshold, "capture operations (reads and writes) slower than this into /debug/slow (negative disables)")
	fs.StringVar(&o.logLevel, "log-level", "info", "log level: debug, info, warn, error (debug logs every request)")
	fs.StringVar(&o.logFormat, "log-format", "text", "log format: text or json")
	return fs
}

func main() {
	var o options
	newFlags(&o).Parse(os.Args[1:])

	logger, err := obs.NewLogger(os.Stderr, o.logLevel, o.logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dqserver:", err)
		os.Exit(2)
	}
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	// Flag combinations fail before any index is built or file touched —
	// a bad invocation should not pay for a synthetic-index setup first.
	if err := validateFlags(o.path, o.shards, o.walArm); err != nil {
		fmt.Fprintln(os.Stderr, "dqserver:", err)
		os.Exit(2)
	}
	db, recovery, err := openDB(o.path, o.scale, o.seed, o.dual, o.shards, o.walArm, logger)
	if err != nil {
		fatal("open database", err)
	}
	st, err := db.Stats()
	if err != nil {
		fatal("read index stats", err)
	}

	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		fatal("bind query listener", err)
	}
	logger.Info("serving",
		"addr", l.Addr().String(),
		"segments", st.Segments,
		"height", st.Height,
		"internal_nodes", st.InternalNodes,
		"leaf_nodes", st.LeafNodes,
		"workers", db.Workers(),
		"shards", db.Shards())
	if _, ok := db.MaintenanceTelemetry(); ok {
		logger.Info("self-healing maintenance loop running")
	}

	srv := netq.NewServer(db)
	srv.WithLogger(logger)
	srv.WithSlowQueryThreshold(o.slowQuery)
	if recovery != nil {
		logger.Info("recovery-on-open", "report", recovery.String())
	}
	logger.Info("read admission control",
		"max_concurrent", srv.MaxConcurrent(), "max_queue", srv.MaxQueue())

	var hs *http.Server
	if o.metrics != "" {
		// Bind synchronously so a taken port is a startup failure, not a
		// warning buried in the logs of an otherwise-healthy server.
		ml, err := net.Listen("tcp", o.metrics)
		if err != nil {
			fatal("bind metrics listener", err)
		}
		hs = &http.Server{Handler: obs.NewHandler(obs.HandlerConfig{
			Registry:  srv.Registry(),
			Tracer:    srv.Tracer(),
			SlowLog:   srv.SlowLog(),
			Journal:   srv.Journal(),
			Telemetry: srv.Telemetry,
			Health: func() error {
				if db.Degraded() {
					return dynq.ErrReadOnly
				}
				return nil
			},
		})}
		logger.Info("observability endpoint up",
			"addr", ml.Addr().String(),
			"paths", "/metrics /healthz /debug/trace /debug/slow /debug/events /debug/telemetry /debug/pprof")
		go func() {
			if err := hs.Serve(ml); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("metrics server", "err", err)
			}
		}()
	}

	// Graceful shutdown: the first SIGINT/SIGTERM closes the listener
	// (unblocking Serve) and drains; a second one forces exit.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		logger.Info("shutting down")
		l.Close()
		srv.Close()
		if hs != nil {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
		}
		go func() {
			<-sig
			logger.Error("forced exit")
			os.Exit(130)
		}()
	}()

	err = srv.Serve(l)
	if err != nil && !errors.Is(err, net.ErrClosed) {
		fatal("serve", err)
	}
	// Final summary: cumulative paper-metric counters and buffer state.
	bs := db.BufferStats()
	logger.Info("final cost counters", "counters", db.CostSnapshot().String())
	logger.Info("buffer pool",
		"frames", bs.Len, "capacity", bs.Capacity,
		"hits", bs.Hits, "misses", bs.Misses,
		"hit_ratio", bs.HitRatio(), "writebacks", bs.WriteBacks)
	if err := shutdown(db, logger); err != nil {
		fatal("close database", err)
	}
	logger.Info("bye")
}

// shutdown syncs the database, then closes it. The wire has no Sync op,
// so without this a -db server would lose every acknowledged write that
// no log holds, and an armed log would replay its whole tail on the next
// open. A failed Sync (a degraded database refuses it) is logged, and
// Close still runs: with a log armed, the tail it keeps is replayed.
func shutdown(db *dynq.DB, logger *slog.Logger) error {
	if err := db.Sync(); err != nil {
		logger.Error("final sync", "err", err, "degraded", db.Degraded())
	}
	return db.Close()
}

// validateFlags rejects bad flag combinations up front, before any
// index is built or file opened, with messages that say what to change.
func validateFlags(path string, shards int, walArm bool) error {
	if shards < 1 {
		return fmt.Errorf("-shards must be >= 1, got %d", shards)
	}
	if walArm && path == "" {
		return fmt.Errorf("-wal requires -db: a synthetic in-memory index has no page files for a log to recover against")
	}
	return nil
}

// openDB opens what the flags name. A -db database runs the maintenance
// loop; the synthetic in-memory one has no file to scrub or log to bound,
// and runs none.
func openDB(path string, scale float64, seed int64, dual bool, shards int, walArm bool, logger *slog.Logger) (*dynq.DB, *dynq.RecoveryReport, error) {
	if err := validateFlags(path, shards, walArm); err != nil {
		return nil, nil, err
	}
	if path != "" {
		// Open through recovery so the server never takes traffic on an
		// unverified file: every unit is verified and its log replayed, and
		// the report is logged at startup. -shards 1 is the single
		// file, N > 1 the <path>.shard<i> set. -wal forces the log sidecars
		// into existence; without the flag existing ones are still detected
		// and replayed. A set that does not exist yet is created fresh, with
		// the tree shape the flags ask for.
		units := 0
		if shards > 1 {
			units = shards
		}
		db, rep, err := dynq.OpenFileRecoverWith(path, dynq.RecoverOptions{
			Shards:      units,
			WAL:         walArm,
			Maintenance: true,
		})
		if units > 0 && errors.Is(err, os.ErrNotExist) {
			db, err = dynq.OpenSharded(dynq.ShardOptions{
				Options: dynq.Options{Path: path, DualTimeAxes: dual, Maintenance: true},
				Shards:  shards,
				WAL:     walArm,
			})
		}
		if err != nil {
			return nil, nil, err
		}
		if db.WALArmed() {
			wal := path + ".wal"
			if units > 0 {
				wal = path + ".shard<i>.wal"
			}
			args := []any{"logs", db.Shards(), "wal", wal}
			if rep != nil {
				args = append(args,
					"replayed_records", rep.WALRecordsReplayed,
					"replayed_updates", rep.WALUpdatesReplayed,
					"torn_tail", rep.WALTornTail)
			}
			logger.Info("write-ahead logs armed", args...)
		}
		return db, rep, nil
	}
	sim := motion.PaperConfig()
	sim.Objects = int(float64(sim.Objects) * scale)
	if sim.Objects < 1 {
		sim.Objects = 1
	}
	sim.Seed = seed
	start := time.Now()
	segs, err := motion.GenerateSegments(sim)
	if err != nil {
		return nil, nil, err
	}
	// In memory there is no file layout: one shard is what Open builds.
	db, err := dynq.OpenSharded(dynq.ShardOptions{
		Options: dynq.Options{DualTimeAxes: dual},
		Shards:  shards,
	})
	if err != nil {
		return nil, nil, err
	}
	updates := make([]dynq.MotionUpdate, len(segs))
	for i, s := range segs {
		updates[i] = dynq.MotionUpdate{ID: s.ObjID, Segment: dynq.Segment{
			T0: s.Seg.T.Lo, T1: s.Seg.T.Hi,
			From: s.Seg.Start, To: s.Seg.End,
		}}
	}
	if err := db.BulkLoadUpdates(updates); err != nil {
		db.Close()
		return nil, nil, err
	}
	logger.Info("generated and indexed synthetic workload",
		"segments", len(segs), "objects", sim.Objects, "seed", seed,
		"elapsed", time.Since(start).Round(time.Millisecond))
	return db, nil, nil
}
