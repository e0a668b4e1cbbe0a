package dynq

import (
	"encoding/json"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// guardedDocs are the documents whose names the guard holds to the code.
var guardedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// docLineBudget bounds DESIGN.md and EXPERIMENTS.md together: they describe
// the program as it is, and history lives in CHANGES.md and git log.
const docLineBudget = 1300

// docBinaries are the commands whose flags a document may quote.
var docBinaries = []string{"dqserver", "dqbench", "dqload", "dqtop"}

// docIndex is what a document may name: every package of the module,
// type-checked from source, the tests its _test.go files declare, each
// command's flags, netq's ops and the benchmark's metrics.
type docIndex struct {
	pkgs    map[string][]*types.Package  // by package name; main packages left out
	types   map[string][]*types.TypeName // package-level types of every package, by name
	tests   map[string]bool              // Test, Benchmark and Fuzz functions
	flags   map[string]map[string]bool   // command → flag names
	ops     map[string]bool              // netq.Op constants
	metrics map[string]bool              // BENCHMARK.json metric names
}

var loadDocIndex = sync.OnceValues(func() (*docIndex, error) {
	sc, err := loadModule()
	if err != nil {
		return nil, err
	}
	idx := &docIndex{
		pkgs:    make(map[string][]*types.Package),
		types:   make(map[string][]*types.TypeName),
		tests:   make(map[string]bool),
		flags:   make(map[string]map[string]bool),
		ops:     make(map[string]bool),
		metrics: make(map[string]bool),
	}
	for _, p := range sc.pkgs {
		if name := p.pkg.Name(); name != "main" {
			idx.pkgs[name] = append(idx.pkgs[name], p.pkg)
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				idx.types[name] = append(idx.types[name], tn)
			}
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
				idx.tests[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, bin := range docBinaries {
		p := sc.pkgs[modulePath+"/cmd/"+bin]
		if p == nil {
			continue
		}
		idx.flags[bin] = declaredFlags(p)
	}
	netq := sc.pkgs[modulePath+"/netq"].pkg
	op := netq.Scope().Lookup("Op").Type()
	for _, name := range netq.Scope().Names() {
		if c, ok := netq.Scope().Lookup(name).(*types.Const); ok && types.Identical(c.Type(), op) {
			idx.ops[constant.StringVal(c.Val())] = true
		}
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		idx.metrics[m.Name] = true
	}
	return idx, nil
})

var testFunc = regexp.MustCompile(`^(?:Test|Benchmark|Fuzz)[A-Z0-9_]`)

// flagDefiners are the flag package's functions and FlagSet methods that
// define a flag; the flag's name is the first string literal among their
// arguments.
var flagDefiners = map[string]bool{
	"Bool": true, "BoolVar": true, "BoolFunc": true, "Duration": true, "DurationVar": true,
	"Float64": true, "Float64Var": true, "Func": true, "Int": true, "IntVar": true,
	"Int64": true, "Int64Var": true, "String": true, "StringVar": true, "TextVar": true,
	"Uint": true, "UintVar": true, "Uint64": true, "Uint64Var": true, "Var": true,
}

// declaredFlags reads a command's flag names off its source: every call of
// a flag-defining function of package flag.
func declaredFlags(p *reachPkg) map[string]bool {
	out := make(map[string]bool)
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefiners[sel.Sel.Name] {
				return true
			}
			fn, ok := p.info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					out[name] = true
					break
				}
			}
			return true
		})
	}
	return out
}

func readDoc(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var (
	// docName is an identifier followed by one or two selectors, with no
	// identifier, dot or slash running into it from the left.
	docName = regexp.MustCompile(`(?:^|[^\w./])([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	// docPath is a path under one of the repository's top directories.
	docPath = regexp.MustCompile(`(?:^|[^\w./-])((?:internal|cmd|examples|netq|results|testdata|scripts|benchmark)/[\w./-]*)`)
	// docTest is a test, benchmark or fuzz target, or a prefix of some
	// with a trailing *.
	docTest = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)
	// metricName is a BENCHMARK.json metric's part after its layer.
	metricName = regexp.MustCompile(`^[a-z0-9]+(?:_[a-z0-9]+)+$`)
	codeSpan   = regexp.MustCompile("`([^`\n]+)`")
)

// TestDocsNameLiveCode holds README.md, DESIGN.md and EXPERIMENTS.md to the
// code. A document fails it when it names a path under a top directory
// that does not exist (a removed package such as internal/<x>); a
// qualified pkg.Name or pkg.Type.Member that no package of the module
// declares, unexported names included; a pkg.metric_name that
// BENCHMARK.json does not define; an unqualified Type.Member whose type
// has no such field or method, the type being dynq's or netq's when either
// declares one and any package's otherwise; or a -flag, after the name of
// one of the commands in a code span or a code block line, that the
// command's flag set does not declare.
func TestDocsNameLiveCode(t *testing.T) {
	idx, err := loadDocIndex()
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range guardedDocs {
		text := readDoc(t, doc)
		for _, m := range docPath.FindAllStringSubmatch(text, -1) {
			path := strings.TrimRight(m[1], "./")
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, m[1])
			}
		}
		for _, m := range docName.FindAllStringSubmatch(text, -1) {
			if msg := idx.checkName(m[1], m[2], m[3]); msg != "" {
				t.Errorf("%s names %s", doc, msg)
			}
		}
		for _, line := range codeLines(text) {
			for _, msg := range idx.checkFlags(line) {
				t.Errorf("%s: %s", doc, msg)
			}
		}
	}
}

// checkName returns what is wrong with a name a document uses, or "".
func (idx *docIndex) checkName(first, second, third string) string {
	if second == "go" || testFunc.MatchString(second) { // a file such as engine.go; a test, checked on its own
		return ""
	}
	if pkgs, ok := idx.pkgs[first]; ok {
		if metricName.MatchString(second) {
			if !idx.metrics[first+"."+second] {
				return first + "." + second + ", which BENCHMARK.json does not define"
			}
			return ""
		}
		for _, p := range pkgs {
			if obj := p.Scope().Lookup(second); obj != nil && (third == "" || hasMember(obj, third)) {
				return ""
			}
		}
		if third != "" {
			return first + "." + second + "." + third + ", which no package of the module declares"
		}
		return first + "." + second + ", which no package of the module declares"
	}
	tns, ok := idx.types[first]
	if !ok {
		return ""
	}
	// The library's own type answers for its name: Options is dynq's even
	// though wal and shard declare an Options too.
	var public []*types.TypeName
	for _, tn := range tns {
		if path := tn.Pkg().Path(); path == modulePath || path == modulePath+"/netq" {
			public = append(public, tn)
		}
	}
	if len(public) > 0 {
		tns = public
	}
	for _, tn := range tns {
		if hasMember(tn, second) {
			return ""
		}
	}
	return first + "." + second + ", which is not a field or method of " + first
}

// hasMember reports whether a type has a field or method of that name.
// Other objects have no members to check and pass.
func hasMember(obj types.Object, member string) bool {
	if _, ok := obj.(*types.TypeName); !ok {
		return true
	}
	found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, obj.Pkg(), member)
	return found != nil
}

// codeLines returns the code spans of a markdown text and the lines of its
// fenced code blocks.
func codeLines(text string) []string {
	var out []string
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			out = append(out, line)
			continue
		}
		for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
			out = append(out, m[1])
		}
	}
	return out
}

// checkFlags returns a complaint for each flag a command line names that
// the command does not declare. The line's command words run from the
// command's name to a pipe, an &, a ; or a # comment.
func (idx *docIndex) checkFlags(line string) []string {
	var out []string
	fields := strings.Fields(line)
	for i, f := range fields {
		bin := f[strings.LastIndex(f, "/")+1:]
		flags, ok := idx.flags[bin]
		if !ok {
			continue
		}
		for _, arg := range fields[i+1:] {
			if strings.ContainsAny(arg[:1], "|&;#") {
				break
			}
			if len(arg) < 2 || arg[0] != '-' || (arg[1] >= '0' && arg[1] <= '9') {
				continue
			}
			name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			if name = strings.TrimRight(name, ".,;:)`"); !flags[name] {
				out = append(out, bin+" -"+name+", which "+bin+" does not declare")
			}
		}
	}
	return out
}

// TestDocsWireSectionNamesEveryOp holds DESIGN.md's wire section to netq's
// ops: every code span there that is shaped like an op name (lower-case
// words joined by hyphens) must be an Op constant, and each op must be
// named exactly once.
func TestDocsWireSectionNamesEveryOp(t *testing.T) {
	idx, err := loadDocIndex()
	if err != nil {
		t.Fatal(err)
	}
	section := docSection(readDoc(t, "DESIGN.md"), "Wire")
	if section == "" {
		t.Fatal(`DESIGN.md has no "## Wire" section`)
	}
	opShaped := regexp.MustCompile(`^[a-z]+(?:-[a-z]+)*$`)
	seen := make(map[string]int)
	for _, m := range codeSpan.FindAllStringSubmatch(section, -1) {
		if opShaped.MatchString(m[1]) {
			if !idx.ops[m[1]] {
				t.Errorf("DESIGN.md's wire section names op %q, which netq does not define", m[1])
			}
			seen[m[1]]++
		}
	}
	for op := range idx.ops {
		if seen[op] != 1 {
			t.Errorf("DESIGN.md's wire section names op %q %d times, want once", op, seen[op])
		}
	}
}

// docSection returns a markdown text's level-two section whose heading
// starts with prefix, up to the next level-two heading.
func docSection(text, prefix string) string {
	start := strings.Index(text, "\n## "+prefix)
	if start < 0 {
		return ""
	}
	rest := text[start+1:]
	if end := strings.Index(rest[3:], "\n## "); end >= 0 {
		return rest[:end+3]
	}
	return rest
}

// TestDocsLineBudget holds DESIGN.md and EXPERIMENTS.md to docLineBudget.
func TestDocsLineBudget(t *testing.T) {
	lines := 0
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		lines += strings.Count(readDoc(t, doc), "\n")
	}
	if lines > docLineBudget {
		t.Errorf("DESIGN.md and EXPERIMENTS.md hold %d lines, over the budget of %d", lines, docLineBudget)
	}
}

// docRef is a reference to a section: a document's file name, an optional
// comma, and the section's title in double quotes.
var docRef = regexp.MustCompile(`\b(DESIGN|EXPERIMENTS)\.md,?\s+"([^"]+)"`)

// TestDocReferencesResolve holds every docRef to DESIGN.md or
// EXPERIMENTS.md — in Go comments, CI, the verify notes, README, ROADMAP and the
// two documents themselves — to a heading of that document (with or
// without its closing parenthetical) or a bold paragraph title.
func TestDocReferencesResolve(t *testing.T) {
	titles := map[string]map[string]bool{
		"DESIGN":      docTitles(readDoc(t, "DESIGN.md")),
		"EXPERIMENTS": docTitles(readDoc(t, "EXPERIMENTS.md")),
	}
	sources := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
		filepath.Join(".github", "workflows", "ci.yml"), filepath.Join(".claude", "skills", "verify", "SKILL.md")}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, ".go") {
			sources = append(sources, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A reference may break across comment lines.
	join := regexp.MustCompile(`\s*\n\s*(?://|#)?\s*`)
	for _, src := range sources {
		text := join.ReplaceAllString(readDoc(t, src), " ")
		for _, m := range docRef.FindAllStringSubmatch(text, -1) {
			if !titles[m[1]][m[2]] {
				t.Errorf("%s refers to %s.md %q, which is no heading or bold title there", src, m[1], m[2])
			}
		}
	}
}

// docTitles returns the titles a reference may name: each heading's text,
// that text without a closing parenthetical, and each bold span's text
// without a closing period or colon.
func docTitles(text string) map[string]bool {
	out := make(map[string]bool)
	heading := regexp.MustCompile(`(?m)^#+\s+(.+?)\s*$`)
	for _, m := range heading.FindAllStringSubmatch(text, -1) {
		out[m[1]] = true
		if i := strings.LastIndex(m[1], " ("); i > 0 && strings.HasSuffix(m[1], ")") {
			out[m[1][:i]] = true
		}
	}
	bold := regexp.MustCompile(`\*\*([^*\n]+)\*\*`)
	for _, m := range bold.FindAllStringSubmatch(text, -1) {
		out[strings.TrimRight(m[1], ".: ")] = true
	}
	return out
}

// TestDocsNameDeclaredTests holds every Test, Benchmark and Fuzz name in
// the documents, CI and the verify notes to a function some _test.go file
// declares; a name ending in * must prefix one.
func TestDocsNameDeclaredTests(t *testing.T) {
	idx, err := loadDocIndex()
	if err != nil {
		t.Fatal(err)
	}
	sources := append(append([]string{}, guardedDocs...),
		filepath.Join(".github", "workflows", "ci.yml"), filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	for _, src := range sources {
		for _, name := range docTest.FindAllString(readDoc(t, src), -1) {
			if prefix, ok := strings.CutSuffix(name, "*"); ok {
				found := false
				for test := range idx.tests {
					found = found || strings.HasPrefix(test, prefix)
				}
				if !found {
					t.Errorf("%s names %s, which prefixes no declared test", src, name)
				}
			} else if !idx.tests[name] {
				t.Errorf("%s names %s, which no _test.go file declares", src, name)
			}
		}
	}
}

// TestFigureTablesMatchBaseline holds EXPERIMENTS.md's figure tables to the
// cells the figure gate compares (results/BENCH_baseline.json). The table
// after a "Figure N" heading has a row per overlap and a column per
// strategy, phase and query range ("PDQ subseq 14×14"; 8×8 when none is
// given); a cell holds the figure's counter — disk accesses for an I/O
// figure, distance computations for a CPU one — as the baseline's value
// printed to 10 significant digits, which is exact for every average the
// gate compares. Every cell must equal the baseline's, and every baseline
// cell must appear in both phases.
func TestFigureTablesMatchBaseline(t *testing.T) {
	var baseline struct {
		Figures []struct {
			Fig    int
			Metric string
			Cells  []struct {
				Strategy      string
				Overlap       float64
				Range         float64
				First, Subseq map[string]float64
			}
		}
	}
	if err := json.Unmarshal([]byte(readDoc(t, filepath.Join("results", "BENCH_baseline.json"))), &baseline); err != nil {
		t.Fatal(err)
	}
	tables := figureTables(t, readDoc(t, "EXPERIMENTS.md"))
	for _, fig := range baseline.Figures {
		counter := map[string]string{"io": "reads", "cpu": "distance_comps"}[fig.Metric]
		table, ok := tables[fig.Fig]
		if !ok {
			t.Errorf("EXPERIMENTS.md has no table for Figure %d", fig.Fig)
			continue
		}
		want := make(map[figureKey]string)
		for _, c := range fig.Cells {
			for phase, counters := range map[string]map[string]float64{"first": c.First, "subseq": c.Subseq} {
				want[figureKey{c.Strategy, phase, c.Overlap, c.Range}] = strconv.FormatFloat(counters[counter], 'g', 10, 64)
			}
		}
		for k, got := range table {
			if w, ok := want[k]; !ok {
				t.Errorf("Figure %d: the baseline has no cell %+v", fig.Fig, k)
			} else if got != w {
				t.Errorf("Figure %d, %+v: the table says %s, the baseline %s", fig.Fig, k, got, w)
			}
		}
		for k := range want {
			if _, ok := table[k]; !ok {
				t.Errorf("Figure %d: the table lacks the baseline cell %+v", fig.Fig, k)
			}
		}
	}
}

type figureKey struct {
	Strategy, Phase string
	Overlap, Range  float64
}

// figureTables parses the first table after each "Figure N" heading.
func figureTables(t *testing.T, text string) map[int]map[figureKey]string {
	t.Helper()
	out := make(map[int]map[figureKey]string)
	heading := regexp.MustCompile(`^#+ Figure (\d+)\b`)
	rangeTok := regexp.MustCompile(`^(\d+)×\d+$`)
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		m := heading.FindStringSubmatch(lines[i])
		if m == nil {
			continue
		}
		fig, _ := strconv.Atoi(m[1])
		for i++; i < len(lines) && !strings.HasPrefix(lines[i], "|"); i++ {
		}
		if i+2 >= len(lines) {
			break
		}
		type column struct {
			strategy, phase string
			rng             float64
		}
		var cols []column
		for _, h := range tableCells(lines[i])[1:] {
			c := column{rng: 8}
			for _, tok := range strings.Fields(strings.ToLower(h)) {
				switch {
				case tok == "naive" || tok == "pdq" || tok == "npdq":
					c.strategy = tok
				case tok == "first" || tok == "subseq":
					c.phase = tok
				case rangeTok.MatchString(tok):
					c.rng, _ = strconv.ParseFloat(rangeTok.FindStringSubmatch(tok)[1], 64)
				}
			}
			if c.strategy == "" || c.phase == "" {
				t.Fatalf("Figure %d: column %q names no strategy and phase", fig, h)
			}
			cols = append(cols, c)
		}
		table := make(map[figureKey]string)
		for i += 2; i < len(lines) && strings.HasPrefix(lines[i], "|"); i++ {
			cells := tableCells(lines[i])
			pct, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(cells[0], "%")), 64)
			if err != nil || len(cells) != len(cols)+1 {
				t.Fatalf("Figure %d: row %q", fig, lines[i])
			}
			overlap := math.Round(pct*100) / 10000
			for j, c := range cols {
				table[figureKey{c.strategy, c.phase, overlap, c.rng}] = cells[j+1]
			}
		}
		out[fig] = table
	}
	return out
}

func tableCells(row string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
	for i := range cells {
		cells[i] = strings.TrimSpace(cells[i])
	}
	return cells
}
