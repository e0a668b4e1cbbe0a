// Package stallcheck reads a package's machine code for one pattern: a
// 16-byte stack load of bytes that narrower stores wrote a few instructions
// before. The CPU cannot forward those stores into the load, which waits for
// them to reach the cache (DESIGN.md, "Node access"). Only tests import it.
package stallcheck

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// window is how many instructions back a narrow stack store can still be in
// flight when a wide load reads it.
const window = 24

// calleeSpan is how many bytes from a stack address passed to a call the
// callee is taken to write, in stores of its own width.
const calleeSpan = 64

var (
	stackStore  = regexp.MustCompile(`^(MOVB|MOVW|MOVL|MOVQ|MOVSS|MOVSD_XMM) [^,]+, (0x[0-9a-f]+|0)\(SP\)$`)
	stackLoad16 = regexp.MustCompile(`^(?:MOVUPS|MOVOU) (0x[0-9a-f]+|0)\(SP\), X\d+$`)
	stackAddr   = regexp.MustCompile(`^LEAQ (0x[0-9a-f]+|0)\(SP\), `)
	storeWidth  = map[string]int64{"MOVB": 1, "MOVW": 2, "MOVL": 4, "MOVQ": 8, "MOVSS": 4, "MOVSD_XMM": 8}
)

// stalls scans one function's instructions (go tool objdump syntax) for a
// 16-byte stack load of bytes that narrower stores wrote within the
// preceding window instructions, and describes each one it finds. A call
// counts as narrow stores to the calleeSpan bytes at each stack address
// taken within window instructions before it: that is how a value returned
// through a pointer, say a Segment filled by NodeView.KeepSeg, reaches the
// caller's frame. The runtime's calls are exempt: they copy memory in
// stores at least as wide as the loads.
func stalls(instrs []string) []string {
	type store struct {
		at         int
		off, width int64
		text       string
	}
	var recent, addrs []store
	var found []string
	for i, in := range instrs {
		if m := stackStore.FindStringSubmatch(in); m != nil {
			off, _ := strconv.ParseInt(m[2], 0, 64)
			recent = append(recent, store{i, off, storeWidth[m[1]], in})
			continue
		}
		if m := stackAddr.FindStringSubmatch(in); m != nil {
			off, _ := strconv.ParseInt(m[1], 0, 64)
			addrs = append(addrs, store{i, off, calleeSpan, in})
			continue
		}
		if strings.HasPrefix(in, "CALL ") && !strings.HasPrefix(in, "CALL runtime.") {
			for _, a := range addrs {
				if i-a.at <= window {
					recent = append(recent, store{i, a.off, a.width, fmt.Sprintf("%s after %s", in, a.text)})
				}
			}
			continue
		}
		m := stackLoad16.FindStringSubmatch(in)
		if m == nil {
			continue
		}
		lo, _ := strconv.ParseInt(m[1], 0, 64)
		for _, s := range recent {
			if i-s.at <= window && s.off < lo+16 && lo < s.off+s.width {
				found = append(found, fmt.Sprintf("%q reads what %q wrote %d instructions earlier", in, s.text, i-s.at))
				break
			}
		}
	}
	return found
}

// disassemble returns the instructions of every function in the calling
// test's package whose symbol matches sym, keyed by symbol. go test strips
// the binary it runs, so it links an unstripped copy with go test -c in the
// package's directory. It skips the test where the machine code is not the
// one that ships: off amd64, under -race and under coverage.
func disassemble(t testing.TB, sym string) map[string][]string {
	t.Helper()
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
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	exe := filepath.Join(t.TempDir(), filepath.Base(dir)+".test")
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

// Check disassembles the calling test's package and fails the test, naming
// the function, for every stall in each of names (symbols relative to
// prefix, the package path plus "."). A name missing from the disassembly
// fails too: the caller must make sure the linker keeps it.
func Check(t testing.TB, prefix string, names []string) {
	t.Helper()
	quoted := make([]string, len(names))
	for i, name := range names {
		quoted[i] = regexp.QuoteMeta(name)
	}
	funcs := disassemble(t, "^"+regexp.QuoteMeta(prefix)+"("+strings.Join(quoted, "|")+")$")
	for _, name := range names {
		instrs, ok := funcs[prefix+name]
		if !ok {
			t.Errorf("%s: not in the disassembly", name)
			continue
		}
		for _, s := range stalls(instrs) {
			t.Errorf("%s stalls on a copy through the stack: %s", name, s)
		}
	}
}
