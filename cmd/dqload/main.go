// Command dqload builds a persistent dynq database file from the paper's
// synthetic mobile-object workload or a CSV motion trace, inspects an
// existing database, or exports a synthetic trace for other tools.
//
// Usage:
//
//	dqload -out db.dynq [-scale F] [-seed N] [-dual]    build from the synthetic workload
//	dqload -out db.dynq -import trace.csv [-dual]       build from a CSV trace
//	dqload -export trace.csv [-scale F] [-seed N]       write the synthetic trace as CSV
//	dqload -stats db.dynq                               validate + inspect a database
//
// The trace format is one motion segment per line:
// id,t0,t1,x0,y0,x1,y1.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dynq"
	"dynq/internal/motion"
	"dynq/internal/rtree"
	"dynq/internal/workload"
)

func main() {
	var (
		out   = flag.String("out", "", "path of the database file to create")
		stat  = flag.String("stats", "", "path of an existing database to inspect")
		scale = flag.Float64("scale", 1.0, "object population scale (1.0 = paper's 5000 objects)")
		seed  = flag.Int64("seed", 1, "workload RNG seed")
		dual  = flag.Bool("dual", false, "use the dual-temporal-axes layout (for NPDQ workloads)")
		imp   = flag.String("import", "", "CSV motion trace to load instead of the synthetic workload")
		exp   = flag.String("export", "", "write the synthetic workload as a CSV trace and exit")
	)
	flag.Parse()

	var err error
	switch {
	case *stat != "":
		err = inspect(*stat)
	case *exp != "":
		err = export(*exp, *scale, *seed)
	case *out != "" && *imp != "":
		err = buildFromTrace(*out, *imp, *dual)
	case *out != "":
		err = build(*out, *scale, *seed, *dual)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// export writes the synthetic workload as a CSV trace.
func export(path string, scale float64, seed int64) error {
	segs, err := generate(scale, seed)
	if err != nil {
		return err
	}
	entries := make([]rtree.LeafEntry, len(segs))
	for i, s := range segs {
		entries[i] = rtree.LeafEntry{ID: rtree.ObjectID(s.ObjID), Seg: s.Seg}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := workload.WriteTrace(f, 2, entries); err != nil {
		return err
	}
	fmt.Printf("exported %d segments to %s\n", len(entries), path)
	return nil
}

// buildFromTrace loads a CSV motion trace into a new database file.
func buildFromTrace(out, tracePath string, dual bool) error {
	f, err := os.Open(tracePath)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := workload.ReadTrace(f, 2)
	if err != nil {
		return err
	}
	fmt.Printf("read %d segments from %s\n", len(entries), tracePath)
	db, err := dynq.Open(dynq.Options{Path: out, DualTimeAxes: dual})
	if err != nil {
		return err
	}
	defer db.Close()
	updates := make([]dynq.MotionUpdate, len(entries))
	for i, e := range entries {
		updates[i] = dynq.MotionUpdate{ID: uint64(e.ID), Segment: dynq.Segment{
			T0: e.Seg.T.Lo, T1: e.Seg.T.Hi,
			From: e.Seg.Start, To: e.Seg.End,
		}}
	}
	start := time.Now()
	if err := db.BulkLoadUpdates(updates); err != nil {
		return err
	}
	if err := db.Sync(); err != nil {
		return err
	}
	fmt.Printf("bulk-loaded and synced %s in %v\n", out, time.Since(start).Round(time.Millisecond))
	return printStats(db)
}

// generate produces the paper's synthetic workload at the given scale.
func generate(scale float64, seed int64) ([]motion.TimedSegment, error) {
	sim := motion.PaperConfig()
	sim.Objects = int(float64(sim.Objects) * scale)
	if sim.Objects < 1 {
		sim.Objects = 1
	}
	sim.Seed = seed
	return motion.GenerateSegments(sim)
}

func build(path string, scale float64, seed int64, dual bool) error {
	start := time.Now()
	segs, err := generate(scale, seed)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d motion segments in %v\n", len(segs), time.Since(start).Round(time.Millisecond))

	db, err := dynq.Open(dynq.Options{Path: path, DualTimeAxes: dual})
	if err != nil {
		return err
	}
	defer db.Close()

	updates := make([]dynq.MotionUpdate, len(segs))
	for i, s := range segs {
		updates[i] = dynq.MotionUpdate{ID: s.ObjID, Segment: dynq.Segment{
			T0: s.Seg.T.Lo, T1: s.Seg.T.Hi,
			From: s.Seg.Start, To: s.Seg.End,
		}}
	}
	start = time.Now()
	if err := db.BulkLoadUpdates(updates); err != nil {
		return err
	}
	if err := db.Sync(); err != nil {
		return err
	}
	fmt.Printf("bulk-loaded and synced %s in %v\n", path, time.Since(start).Round(time.Millisecond))
	return printStats(db)
}

func inspect(path string) error {
	db, rep, err := dynq.OpenFileRecover(path)
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Printf("recovery:        %s\n", rep)
	infos, _ := db.WALInfo()
	for _, info := range infos {
		fmt.Printf("wal:             %s (epoch %d, %s)\n", info.Path, info.Epoch, sizeofBytes(info.Size))
		fmt.Printf("  lsn:           last %d, durable %d, checkpoint %d\n",
			info.LastLSN, info.DurableLSN, info.CheckpointLSN)
		fmt.Printf("  live:          %d records (%d bytes) since last checkpoint\n",
			info.LiveRecords, info.LiveBytes)
	}
	if err := db.Validate(); err != nil {
		return fmt.Errorf("index validation FAILED: %w", err)
	}
	fmt.Println("index validation OK")
	return printStats(db)
}

// sizeofBytes renders a byte count compactly for the inspect report.
func sizeofBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

func printStats(db *dynq.DB) error {
	st, err := db.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("segments:        %d\n", st.Segments)
	fmt.Printf("height:          %d levels\n", st.Height)
	fmt.Printf("leaf nodes:      %d (fanout %d, avg fill %.2f)\n", st.LeafNodes, st.LeafFanout, st.AvgLeafFill)
	fmt.Printf("internal nodes:  %d (fanout %d, avg fill %.2f)\n", st.InternalNodes, st.IntFanout, st.AvgIntFill)
	return nil
}
