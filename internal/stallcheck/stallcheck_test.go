package stallcheck

import "testing"

// The scanner on what rtree's EntryOverlapTime compiled to when its entry
// helper copied the view: two stalls, and none in the stores alone.
func TestStalls(t *testing.T) {
	stalled := []string{
		"SUBQ $0x98, SP",
		"MOVQ AX, 0xc0(SP)", "MOVQ BX, 0xc8(SP)", "MOVQ CX, 0xd0(SP)",
		"MOVL DI, 0xd8(SP)", "MOVW SI, 0xdc(SP)", "MOVB R8, 0xde(SP)", "MOVB R9, 0xdf(SP)",
		"MOVUPS 0xc0(SP), X8", "MOVUPS X8, 0x78(SP)", "MOVUPS 0xd0(SP), X8", "MOVUPS X8, 0x88(SP)",
	}
	if got := stalls(stalled); len(got) != 2 {
		t.Fatalf("scanner found %d stalls in the reference excerpt, want 2: %v", len(got), got)
	}
	if got := stalls(stalled[:8]); len(got) != 0 {
		t.Fatalf("scanner flags stores alone: %v", got)
	}
}

// The scanner on what core's NPDQ leaf loop compiled to when it kept an
// entry through NodeView.Keep and copied it into a Result: KeepSeg fills the
// entry's segment through a pointer into the caller's frame, which reads it
// straight back in 16 bytes.
func TestStallsAcrossACall(t *testing.T) {
	kept := []string{
		"MOVUPS X15, 0x90(SP)", "MOVUPS X15, 0x98(SP)", "MOVUPS X15, 0xa8(SP)",
		"LEAQ 0x98(SP), DX", "MOVQ DX, 0(SP)", "MOVQ 0x180(SP), AX",
		"CALL dynq/internal/rtree.NodeView.KeepSeg(SB)",
		"MOVQ AX, 0x90(SP)", "MOVQ 0x90(SP), DX", "MOVQ DX, 0xd8(SP)",
		"MOVUPS 0x98(SP), X0", "MOVUPS X0, 0xe0(SP)",
	}
	if got := stalls(kept); len(got) != 1 {
		t.Fatalf("scanner found %d stalls in the kept-entry excerpt, want 1: %v", len(got), got)
	}
	// The same call with the segment in the heap: nothing to reload.
	heap := []string{"LEAQ 0x8(R11), DX", "CALL dynq/internal/rtree.NodeView.KeepSeg(SB)", "MOVUPS 0x98(SP), X0"}
	if got := stalls(heap); len(got) != 0 {
		t.Fatalf("scanner flags a call that writes no stack: %v", got)
	}
}
