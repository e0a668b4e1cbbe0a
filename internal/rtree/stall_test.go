package rtree

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// perEntryAccessors are the NodeView methods the query loops call once per
// entry, chooseChild, which reads every entry of each node an insert
// descends through, and the range search's leaf loop, which builds a result
// per match. Naming them here links every one into the test binary,
// inlined elsewhere or not, so the disassembly below always has them to
// check.
var perEntryAccessors = map[string]any{
	"NodeView.ChildID":          NodeView.ChildID,
	"NodeView.ChildOverlaps":    NodeView.ChildOverlaps,
	"NodeView.ChildStartTimes":  NodeView.ChildStartTimes,
	"NodeView.ChildBox":         NodeView.ChildBox,
	"NodeView.EntryKey":         NodeView.EntryKey,
	"NodeView.Entry":            NodeView.Entry,
	"NodeView.EntryOverlaps":    NodeView.EntryOverlaps,
	"NodeView.EntryTime":        NodeView.EntryTime,
	"NodeView.EntryOverlapTime": NodeView.EntryOverlapTime,
	"NodeView.NextOverlap":      NodeView.NextOverlap,
	"NodeView.EntryLines":       NodeView.EntryLines,
	"NodeView.EntryBox":         NodeView.EntryBox,
	"NodeView.Keep":             NodeView.Keep,
	"NodeView.chooseChild":      NodeView.chooseChild,
	"(*search).leaf":            (*search).leaf,
}

// stallWindow is how many instructions back a narrow stack store can still
// be in flight when a wide load reads it.
const stallWindow = 24

var (
	stackStore  = regexp.MustCompile(`^(MOVB|MOVW|MOVL|MOVQ|MOVSS|MOVSD_XMM) [^,]+, (0x[0-9a-f]+|0)\(SP\)$`)
	stackLoad16 = regexp.MustCompile(`^(?:MOVUPS|MOVOU) (0x[0-9a-f]+|0)\(SP\), X\d+$`)
	storeWidth  = map[string]int64{"MOVB": 1, "MOVW": 2, "MOVL": 4, "MOVQ": 8, "MOVSS": 4, "MOVSD_XMM": 8}
)

// stackStalls scans one function's instructions (go tool objdump syntax)
// for a 16-byte stack load of bytes that narrower stores wrote within the
// preceding stallWindow instructions: the CPU cannot forward those stores
// into the load, which waits for them to reach the cache.
func stackStalls(instrs []string) []string {
	type store struct {
		at         int
		off, width int64
		text       string
	}
	var recent []store
	var found []string
	for i, in := range instrs {
		if m := stackStore.FindStringSubmatch(in); m != nil {
			off, _ := strconv.ParseInt(m[2], 0, 64)
			recent = append(recent, store{i, off, storeWidth[m[1]], in})
			continue
		}
		m := stackLoad16.FindStringSubmatch(in)
		if m == nil {
			continue
		}
		lo, _ := strconv.ParseInt(m[1], 0, 64)
		for _, s := range recent {
			if i-s.at <= stallWindow && s.off < lo+16 && lo < s.off+s.width {
				found = append(found, fmt.Sprintf("%q reads what %q wrote %d instructions earlier", in, s.text, i-s.at))
				break
			}
		}
	}
	return found
}

// disassemble returns the instructions of every function in this package's
// test binary whose symbol matches sym, keyed by symbol. go test strips the
// binary it runs, so the test links an unstripped copy with go test -c.
func disassemble(t *testing.T, goTool, sym string) map[string][]string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "rtree.test")
	if out, err := exec.Command(goTool, "test", "-c", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("go test -c: %v\n%s", err, out)
	}
	out, err := exec.Command(goTool, "tool", "objdump", "-s", sym, exe).Output()
	if err != nil {
		t.Skipf("go tool objdump unavailable: %v", err)
	}
	funcs := map[string][]string{}
	var cur string
	for _, line := range strings.Split(string(out), "\n") {
		if name, ok := strings.CutPrefix(line, "TEXT "); ok {
			cur, _, _ = strings.Cut(name, "(SB)")
			continue
		}
		var fields []string
		for _, f := range strings.Split(line, "\t") {
			if f = strings.TrimSpace(f); f != "" {
				fields = append(fields, f)
			}
		}
		if cur != "" && len(fields) >= 4 { // file:line, address, encoding, instruction
			funcs[cur] = append(funcs[cur], fields[3])
		}
	}
	return funcs
}

// A NodeView travels in registers. If an accessor — or anything it inlines —
// copies the view through memory, the compiler spills it with 8-, 4-, 2- and
// 1-byte stores and reads it back with 16-byte loads a few instructions on,
// and every call waits twice for the stores to drain (DESIGN.md, "Node
// access"). This test reads the package's machine code and fails, naming
// the method, when any per-entry accessor does that.
func TestViewAccessorsDoNotStall(t *testing.T) {
	// The scanner itself, on what EntryOverlapTime compiled to when its
	// entry helper copied the view.
	stalled := []string{
		"SUBQ $0x98, SP",
		"MOVQ AX, 0xc0(SP)", "MOVQ BX, 0xc8(SP)", "MOVQ CX, 0xd0(SP)",
		"MOVL DI, 0xd8(SP)", "MOVW SI, 0xdc(SP)", "MOVB R8, 0xde(SP)", "MOVB R9, 0xdf(SP)",
		"MOVUPS 0xc0(SP), X8", "MOVUPS X8, 0x78(SP)", "MOVUPS 0xd0(SP), X8", "MOVUPS X8, 0x88(SP)",
	}
	if got := stackStalls(stalled); len(got) != 2 {
		t.Fatalf("scanner found %d stalls in the reference excerpt, want 2: %v", len(got), got)
	}
	if got := stackStalls(stalled[:8]); len(got) != 0 {
		t.Fatalf("scanner flags stores alone: %v", got)
	}

	switch {
	case runtime.GOARCH != "amd64":
		t.Skip("the scan reads amd64 machine code")
	case raceDetector:
		t.Skip("-race instruments every access")
	case testing.CoverMode() != "":
		t.Skip("coverage instruments every block")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go command: %v", err)
	}
	prefix := reflect.TypeOf(NodeView{}).PkgPath() + "."
	funcs := disassemble(t, goTool, regexp.QuoteMeta(prefix)+`(NodeView\.(Entry|Child|Keep|Next|chooseChild)|\(\*search\)\.leaf)`)
	var names []string
	for name := range perEntryAccessors {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		instrs, ok := funcs[prefix+name]
		if !ok {
			t.Errorf("%s: not in the disassembly", name)
			continue
		}
		for _, s := range stackStalls(instrs) {
			t.Errorf("%s stalls on a copy through the stack: %s", name, s)
		}
	}
}
