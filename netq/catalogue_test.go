package netq

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dynq"
)

// catalogueGolden lists every metric family a fully armed server exposes:
// one line per family with its type and the label keys of its series.
const catalogueGolden = "testdata/metrics_catalogue.txt"

// TestMetricCatalogue scrapes /metrics from a server with every optional
// source armed — two units, write-ahead logs, the maintenance loop and a
// recovery report — and compares the family catalogue
// (name, type, label keys; never values) with the golden file, so a
// change that drops, renames or re-types a series fails here.
func TestMetricCatalogue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cat.dynq")
	seed, err := dynq.OpenSharded(dynq.ShardOptions{Options: dynq.Options{Path: path}, Shards: 2, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := float64(i)
		if err := seed.Insert(dynq.ObjectID(i), dynq.Segment{
			T0: 0, T1: 10, From: []float64{x, x}, To: []float64{x + 1, x},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}
	db, rep, err := dynq.OpenFileRecoverWith(path, dynq.RecoverOptions{
		Shards: 2,
		WAL:    true,
		Maintenance: dynq.MaintenanceOptions{
			Checkpoint:       dynq.CheckpointPolicy{MaxBytes: 1 << 20},
			ScrubPagesPerSec: 100,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db).WithRecoveryReport(rep)
	addr, stop := serveOn(t, srv)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{5, 5}}, 0, 1); err != nil {
		t.Fatal(err)
	}

	var prom strings.Builder
	if err := srv.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	got := metricCatalogue(t, prom.String())
	want, err := os.ReadFile(catalogueGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics catalogue differs from %s; got:\n%s", catalogueGolden, got)
	}
}

var labelKey = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// metricCatalogue reduces a Prometheus text exposition to one line per
// family: "<family> <type> {<label keys>}…", each distinct label-key list
// once in order of first appearance. A histogram's le label is left out.
func metricCatalogue(t *testing.T, exposition string) string {
	t.Helper()
	var b strings.Builder
	family, kind := "", ""
	var keySets []string
	flush := func() {
		if family != "" {
			b.WriteString(family + " " + kind + " " + strings.Join(keySets, " ") + "\n")
		}
	}
	sc := bufio.NewScanner(strings.NewReader(exposition))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			flush()
			family, kind, _ = strings.Cut(rest, " ")
			keySets = nil
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, _ := strings.Cut(line[:strings.LastIndexByte(line, ' ')], "{")
		if kind == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		if name != family {
			t.Fatalf("series %q outside its family %q", line, family)
		}
		var keys []string
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			if kind != "histogram" || m[1] != "le" {
				keys = append(keys, m[1])
			}
		}
		if set := "{" + strings.Join(keys, ",") + "}"; !slices.Contains(keySets, set) {
			keySets = append(keySets, set)
		}
	}
	flush()
	return b.String()
}
