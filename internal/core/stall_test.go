package core

import (
	"reflect"
	"sort"
	"testing"

	"dynq/internal/stallcheck"
)

// leafLoops are the session loops that run once per leaf entry and build a
// result or a queue entry per match. Naming them here links both into the
// test binary, inlined elsewhere or not.
var leafLoops = map[string]any{
	"(*NPDQ).collectLeaf": (*NPDQ).collectLeaf,
	"(*PDQ).expandLeaf":   (*PDQ).expandLeaf,
}

// NPDQ's and PDQ's leaf loops inline the rtree accessors and build what they
// keep in place: neither may copy a view or a kept entry through the stack
// and reload it with 16-byte loads (rtree's TestViewAccessorsDoNotStall
// holds the accessors themselves to the same rule).
func TestLeafLoopsDoNotStall(t *testing.T) {
	var names []string
	for name := range leafLoops {
		names = append(names, name)
	}
	sort.Strings(names)
	stallcheck.Check(t, reflect.TypeOf(NPDQ{}).PkgPath()+".", names)
}
