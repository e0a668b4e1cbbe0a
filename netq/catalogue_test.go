package netq

import (
	"bufio"
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"dynq"
	"dynq/internal/pager"
)

// catalogueGolden lists every metric family a fully armed server exposes:
// one line per family with its type, the label keys of its series, and
// its reader — where the family's value is asserted or explained.
const catalogueGolden = "testdata/metrics_catalogue.txt"

// armedServer serves a database with every optional /metrics source
// armed — two units, write-ahead logs and the maintenance loop, opened
// through recovery — after a durable write and a snapshot over the wire.
func armedServer(t *testing.T) (*dynq.DB, *Server) {
	t.Helper()
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
	db, _, err := dynq.OpenFileRecoverWith(path, dynq.RecoverOptions{
		Shards:      2,
		WAL:         true,
		Maintenance: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	srv := NewServer(db)
	addr, stop := serveOn(t, srv)
	t.Cleanup(stop)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.ApplyUpdatesCtx(context.Background(), []dynq.MotionUpdate{{ID: 100, Segment: dynq.Segment{
		T0: 0, T1: 10, From: []float64{3, 3}, To: []float64{4, 4},
	}}}, dynq.DurabilitySync); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{5, 5}}, 0, 1); err != nil {
		t.Fatal(err)
	}
	return db, srv
}

func scrape(t *testing.T, srv *Server) string {
	t.Helper()
	var prom strings.Builder
	if err := srv.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	return prom.String()
}

// catalogueLine is one golden line: the family's shape as
// metricCatalogue renders it, and its reader.
type catalogueLine struct {
	family, kind, shape, reader string
}

func readCatalogue(t *testing.T) []catalogueLine {
	t.Helper()
	raw, err := os.ReadFile(catalogueGolden)
	if err != nil {
		t.Fatal(err)
	}
	var lines []catalogueLine
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			t.Fatalf("%s: malformed line %q", catalogueGolden, line)
		}
		l := catalogueLine{family: f[0], kind: f[1], shape: line}
		if last := f[len(f)-1]; !strings.HasPrefix(last, "{") {
			l.reader = last
			l.shape = strings.Join(f[:len(f)-1], " ")
		}
		lines = append(lines, l)
	}
	return lines
}

// TestMetricCatalogue scrapes /metrics from the armed server and compares
// the family catalogue (name, type, label keys; never values) with the
// golden file's, so a change that drops, renames or re-types a series
// fails here. On a mismatch it prints the catalogue it saw, each family
// with the golden file's reader ("-" for a new one).
func TestMetricCatalogue(t *testing.T) {
	_, srv := armedServer(t)
	got := metricCatalogue(t, scrape(t, srv))
	golden := readCatalogue(t)
	var want strings.Builder
	readers := map[string]string{}
	for _, l := range golden {
		want.WriteString(l.shape + "\n")
		readers[l.family] = l.reader
	}
	if got == want.String() {
		return
	}
	var seen strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		family, _, _ := strings.Cut(line, " ")
		reader := readers[family]
		if reader == "" {
			reader = "-"
		}
		seen.WriteString(line + " " + reader + "\n")
	}
	t.Errorf("/metrics catalogue differs from %s; got:\n%s", catalogueGolden, seen.String())
}

// TestMetricFamiliesHaveReaders holds every family the armed server
// serves to a reader named in the catalogue's last column, and every
// reader to mentioning its family by its full name (a prefix such as
// dynq_wal_ names no family). A reader is one of:
//
//	.github/workflows/ci.yml    a smoke's metrics:<family> assertion
//	README.md#<anchor>          a section of README, DESIGN or
//	                            EXPERIMENTS, by its heading's anchor
//	<dir>/<file>_test.go#TestX  a named test
func TestMetricFamiliesHaveReaders(t *testing.T) {
	_, srv := armedServer(t)
	lines := readCatalogue(t)
	byFamily := map[string]catalogueLine{}
	for _, l := range lines {
		byFamily[l.family] = l
	}
	for _, line := range strings.Split(strings.TrimSuffix(metricCatalogue(t, scrape(t, srv)), "\n"), "\n") {
		family, _, _ := strings.Cut(line, " ")
		if _, ok := byFamily[family]; !ok {
			t.Errorf("%s is served but has no line in %s", family, catalogueGolden)
		}
	}
	for _, l := range lines {
		if l.reader == "" {
			t.Errorf("%s has no reader in %s", l.family, catalogueGolden)
			continue
		}
		text, prefix, err := readerText(l.reader)
		if err != nil {
			t.Errorf("%s: %v", l.family, err)
			continue
		}
		if !mentions(text, prefix, l.family, l.kind) {
			t.Errorf("%s: reader %s does not mention %s%s", l.family, l.reader, prefix, l.family)
		}
	}
}

// readerText returns the text a reader names and the prefix a mention
// there must carry.
func readerText(reader string) (text, prefix string, err error) {
	file, anchor, _ := strings.Cut(reader, "#")
	ci := file == ".github/workflows/ci.yml" && anchor == ""
	doc := slices.Contains([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}, file) && anchor != ""
	test := strings.HasSuffix(file, "_test.go") && strings.HasPrefix(anchor, "Test")
	if !ci && !doc && !test {
		return "", "", fmt.Errorf("reader %q is neither ci.yml, a README, DESIGN or EXPERIMENTS section, nor a named test", reader)
	}
	raw, err := os.ReadFile(filepath.Join("..", filepath.FromSlash(file)))
	switch {
	case err != nil:
		return "", "", err
	case ci:
		return string(raw), "metrics:", nil
	case doc:
		if s, ok := markdownSection(string(raw), anchor); ok {
			return s, "", nil
		}
		return "", "", fmt.Errorf("%s has no section #%s", file, anchor)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, raw, 0)
	if err != nil {
		return "", "", err
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == anchor {
			return string(raw[fset.Position(fd.Pos()).Offset:fset.Position(fd.End()).Offset]), "", nil
		}
	}
	return "", "", fmt.Errorf("%s has no func %s", file, anchor)
}

// markdownSection returns the section under the heading whose anchor is
// slug, up to the next heading of the same or a higher level. Lines in
// fenced code blocks are never headings.
func markdownSection(doc, slug string) (string, bool) {
	var b strings.Builder
	level, fenced := 0, false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
		}
		if !fenced {
			hashes := len(line) - len(strings.TrimLeft(line, "#"))
			if hashes > 0 && strings.HasPrefix(line[hashes:], " ") {
				if level > 0 && hashes <= level {
					break
				}
				if level == 0 && headingAnchor(line[hashes+1:]) == slug {
					level = hashes
				}
			}
		}
		if level > 0 {
			b.WriteString(line + "\n")
		}
	}
	return b.String(), level > 0
}

// headingAnchor is GitHub's anchor for a heading: lower case, letters,
// digits, '_' and '-' kept, spaces turned into '-', the rest dropped.
func headingAnchor(heading string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(strings.TrimSpace(heading)) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// mentions reports whether text names family by its full name after
// prefix: a longer name that starts with it does not count, a
// histogram's _bucket, _sum and _count series do.
func mentions(text, prefix, family, kind string) bool {
	suffix := ""
	if kind == "histogram" {
		suffix = "(?:_bucket|_sum|_count)?"
	}
	return regexp.MustCompile(`(?:^|[^A-Za-z0-9_])` + regexp.QuoteMeta(prefix+family) + suffix + `(?:[^A-Za-z0-9_]|$)`).MatchString(text)
}

// TestMetricInvariants scrapes the armed server after its traffic and
// checks what each otherwise unread family must read there: the per-unit
// cost counters sum to the database's totals, one series per unit; the
// buffer pool's counters are the database's; the loop ticked, scrubbed
// and found nothing to heal; the byte counters moved.
func TestMetricInvariants(t *testing.T) {
	db, srv := armedServer(t)
	deadline := time.Now().Add(10 * time.Second)
	for {
		m, _ := db.MaintenanceTelemetry()
		if m.Ticks >= 1 && m.ScrubPasses >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("maintenance loop has not ticked and scrubbed: %+v", m)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The loop keeps ticking beside the scrape: take one that the
	// database's own accounting did not move across.
	var (
		series map[string][]float64
		cost   = db.CostSnapshot()
		buf    = db.BufferStats()
		bad    = pager.ChecksumFailures()
	)
	for range 100 {
		series = parseSeries(t, scrape(t, srv))
		c, b, f := db.CostSnapshot(), db.BufferStats(), pager.ChecksumFailures()
		if c == cost && b == buf && f == bad {
			break
		}
		cost, buf, bad = c, b, f
	}
	sum := func(name string) float64 {
		var s float64
		for _, v := range series[name] {
			s += v
		}
		return s
	}

	for _, f := range []struct {
		family string
		total  int64
	}{
		{"dynq_page_reads_total", cost.Reads()},
		{"dynq_page_writes_total", cost.PageWrites},
		{"dynq_distance_comps_total", cost.DistanceComps},
		{"dynq_pruned_nodes_total", cost.PrunedNodes},
		{"dynq_results_total", cost.Results},
	} {
		if n := len(series[f.family]); n != db.Shards() {
			t.Errorf("%s has %d series, want one per unit (%d)", f.family, n, db.Shards())
		}
		if got := sum(f.family); got != float64(f.total) {
			t.Errorf("%s sums to %v over shard, want the database's %d", f.family, got, f.total)
		}
	}
	if cost.Reads() == 0 || cost.DistanceComps == 0 || cost.Results == 0 || cost.PageWrites == 0 {
		t.Errorf("cost = %+v: the traffic read, compared, answered or wrote nothing", cost)
	}

	for _, c := range []struct {
		family string
		got    float64
		rel    string
		want   float64
	}{
		{"pager_buffer_hits_total", sum("pager_buffer_hits_total"), "==", float64(buf.Hits)},
		{"pager_buffer_misses_total", sum("pager_buffer_misses_total"), "==", float64(buf.Misses)},
		{"pager_buffer_writebacks_total", sum("pager_buffer_writebacks_total"), "==", float64(buf.WriteBacks)},
		{"pager_buffer_frames", sum("pager_buffer_frames"), "==", float64(buf.Len)},
		{"pager_checksum_failures_total", sum("pager_checksum_failures_total"), "==", float64(bad)},
		{"dynq_wal_fsyncs_total", sum("dynq_wal_fsyncs_total"), ">=", sum("dynq_wal_fsync_seconds_count")},
		{"dynq_wal_fsync_seconds", sum("dynq_wal_fsync_seconds_count"), ">", 0},
		{"dynq_degraded_mode", sum("dynq_degraded_mode"), "==", 0},
		{"dynq_maintenance_ticks_total", sum("dynq_maintenance_ticks_total"), ">=", 1},
		{"dynq_maintenance_checkpoints_total", sum("dynq_maintenance_checkpoints_total"), "==", 0},
		{"dynq_maintenance_checkpoint_failures_total", sum("dynq_maintenance_checkpoint_failures_total"), "==", 0},
		{"dynq_maintenance_checkpoint_pressure", sum("dynq_maintenance_checkpoint_pressure"), ">", 0},
		{"dynq_maintenance_checkpoint_pressure", sum("dynq_maintenance_checkpoint_pressure"), "<", 1},
		{"dynq_maintenance_probes_total", sum("dynq_maintenance_probes_total"), "==", 0},
		{"dynq_maintenance_probe_failures_total", sum("dynq_maintenance_probe_failures_total"), "==", 0},
		{"dynq_maintenance_heals_total", sum("dynq_maintenance_heals_total"), "==", 0},
		{"dynq_maintenance_downtime_seconds_total", sum("dynq_maintenance_downtime_seconds_total"), "==", 0},
		{"dynq_scrub_passes_total", sum("dynq_scrub_passes_total"), ">=", 1},
		{"dynq_scrub_passes_total", sum("dynq_scrub_passes_total"), "<=", sum("dynq_scrub_pages_total")},
		{"dynq_gc_last_pause_seconds", sum("dynq_gc_last_pause_seconds"), "<=", sum("dynq_gc_pause_total_seconds")},
		{"netq_bytes_in_total", sum("netq_bytes_in_total"), ">", 0},
		{"netq_bytes_out_total", sum("netq_bytes_out_total"), ">", 0},
	} {
		if len(series[c.family]) == 0 && len(series[c.family+"_count"]) == 0 {
			t.Errorf("%s is not served", c.family)
			continue
		}
		ok := map[string]bool{
			"==": c.got == c.want, ">=": c.got >= c.want, ">": c.got > c.want,
			"<=": c.got <= c.want, "<": c.got < c.want,
		}[c.rel]
		if !ok {
			t.Errorf("%s reads %v, want %s %v", c.family, c.got, c.rel, c.want)
		}
	}
}

// parseSeries reads a Prometheus text exposition into each series name's
// values, one per label set.
func parseSeries(t *testing.T, exposition string) map[string][]float64 {
	t.Helper()
	out := map[string][]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		out[name] = append(out[name], v)
	}
	return out
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
