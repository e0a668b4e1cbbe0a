package netq

import (
	"errors"
	"fmt"
	"testing"

	"dynq"
)

// TestTypedErrorRoundTrip pins the errKind/typedError pairing: every
// typed sentinel a server can return must classify to a wire kind and
// reconstruct client-side so errors.Is keeps working across the wire.
func TestTypedErrorRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		server   error
		kind     string
		sentinel error
	}{
		{
			name:     "disk full",
			server:   fmt.Errorf("dynq: wal append: %w", dynq.ErrDiskFull),
			kind:     ErrKindDiskFull,
			sentinel: dynq.ErrDiskFull,
		},
		{
			name:     "read only",
			server:   fmt.Errorf("refusing write: %w", dynq.ErrReadOnly),
			kind:     ErrKindReadOnly,
			sentinel: dynq.ErrReadOnly,
		},
		{
			// A disk-full failure that also tripped read-only mode must
			// surface as disk-full: it names the actionable cause.
			name:     "disk full wins over read only",
			server:   fmt.Errorf("%w: %w", dynq.ErrReadOnly, dynq.ErrDiskFull),
			kind:     ErrKindDiskFull,
			sentinel: dynq.ErrDiskFull,
		},
		{
			name:     "not found",
			server:   fmt.Errorf("delete: %w", dynq.ErrNotFound),
			kind:     ErrKindNotFound,
			sentinel: dynq.ErrNotFound,
		},
		{
			name:     "non-finite",
			server:   fmt.Errorf("%w in segment", dynq.ErrNonFinite),
			kind:     ErrKindNonFinite,
			sentinel: dynq.ErrNonFinite,
		},
		{
			name:     "no session",
			server:   fmt.Errorf("%w: predictive (start with %s)", ErrNoSession, OpPDQStart),
			kind:     ErrKindNoSession,
			sentinel: ErrNoSession,
		},
		{
			name:     "overloaded",
			server:   ErrOverloaded,
			kind:     ErrKindOverloaded,
			sentinel: ErrOverloaded,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind := errKind(tc.server)
			if kind != tc.kind {
				t.Fatalf("errKind(%v) = %q, want %q", tc.server, kind, tc.kind)
			}
			got := typedError(Request{Op: OpApplyUpdates}, Response{Err: tc.server.Error(), ErrKind: kind})
			if !errors.Is(got, tc.sentinel) {
				t.Fatalf("reconstructed error %v does not match the sentinel %v", got, tc.sentinel)
			}
			if got.Error() != tc.server.Error() {
				t.Fatalf("message lost in transit: %q != %q", got.Error(), tc.server.Error())
			}
		})
	}
}
