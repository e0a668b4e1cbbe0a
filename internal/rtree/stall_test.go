package rtree

import (
	"reflect"
	"sort"
	"testing"

	"dynq/internal/stallcheck"
)

// perEntryAccessors are the NodeView methods the query loops call once per
// entry, chooseChild, which reads every entry of each node an insert
// descends through, and the range search's leaf loop, which builds a result
// per match. Naming them here links every one into the test binary,
// inlined elsewhere or not, so the disassembly always has them to check.
var perEntryAccessors = map[string]any{
	"NodeView.ChildID":          NodeView.ChildID,
	"NodeView.ChildOverlaps":    NodeView.ChildOverlaps,
	"NodeView.ChildStartTimes":  NodeView.ChildStartTimes,
	"NodeView.ChildBox":         NodeView.ChildBox,
	"NodeView.EntryKey":         NodeView.EntryKey,
	"NodeView.Entry":            NodeView.Entry,
	"NodeView.EntryOverlaps":    NodeView.EntryOverlaps,
	"NodeView.NextBoxOverlap":   NodeView.NextBoxOverlap,
	"NodeView.EntryTime":        NodeView.EntryTime,
	"NodeView.EntryOverlapTime": NodeView.EntryOverlapTime,
	"NodeView.NextOverlap":      NodeView.NextOverlap,
	"NodeView.nextCandidate":    NodeView.nextCandidate,
	"NodeView.EntryLines":       NodeView.EntryLines,
	"NodeView.EntryBox":         NodeView.EntryBox,
	"NodeView.Keep":             NodeView.Keep,
	"NodeView.KeepSeg":          NodeView.KeepSeg,
	"NodeView.chooseChild":      NodeView.chooseChild,
	"(*search).leaf":            (*search).leaf,
}

// A NodeView travels in registers. If an accessor — or anything it inlines —
// copies the view through memory, the compiler spills it with 8-, 4-, 2- and
// 1-byte stores and reads it back with 16-byte loads a few instructions on,
// and every call waits twice for the stores to drain (DESIGN.md, "Node
// access"). This test reads the package's machine code and fails, naming
// the method, when any per-entry accessor does that.
func TestViewAccessorsDoNotStall(t *testing.T) {
	var names []string
	for name := range perEntryAccessors {
		names = append(names, name)
	}
	sort.Strings(names)
	stallcheck.Check(t, reflect.TypeOf(NodeView{}).PkgPath()+".", names)
}
