package netq

import (
	"errors"
	"fmt"

	"dynq"
)

// Error kinds carried in Response.ErrKind so clients can reconstruct
// typed errors across the wire (the Err string alone is ambiguous).
const (
	ErrKindUnknownOp  = "unknown_op"
	ErrKindNoSession  = "no_session"
	ErrKindOverloaded = "overloaded"
	ErrKindReadOnly   = "read_only"
	ErrKindNotFound   = "not_found"
	ErrKindNoWAL      = "no_wal"
	ErrKindDiskFull   = "disk_full"
	ErrKindNonFinite  = "non_finite"
)

// ErrNoSession is returned when a session-scoped operation (pdq-fetch,
// adaptive-frame) arrives before the corresponding start op.
var ErrNoSession = errors.New("netq: no session started on this connection")

// ErrOverloaded is returned (and matched with errors.Is on both sides of
// the wire) when a read operation is rejected by admission control: the
// configured number of reads are already executing and the wait queue is
// full. Clients should back off and retry.
var ErrOverloaded = errors.New("netq: server overloaded, read rejected by admission control")

// UnknownOpError is returned when a request names an operation the
// server has no handler for.
type UnknownOpError struct {
	Op Op
}

func (e *UnknownOpError) Error() string { return fmt.Sprintf("netq: unknown op %q", e.Op) }

// VersionError reports a protocol version mismatch detected during the
// connection handshake. Remote is 0 when the peer predates the
// handshake (protocol version 1) or is not a netq endpoint at all;
// Detail carries the peer's own description of the failure, if any.
type VersionError struct {
	Local  int
	Remote int
	Detail string
}

func (e *VersionError) Error() string {
	msg := fmt.Sprintf("netq: protocol version mismatch: local v%d, peer v%d", e.Local, e.Remote)
	if e.Remote == 0 {
		msg += " (peer predates the handshake or is not a netq server)"
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// errKind classifies a server-side error for the wire.
func errKind(err error) string {
	var uo *UnknownOpError
	switch {
	case errors.As(err, &uo):
		return ErrKindUnknownOp
	case errors.Is(err, ErrNoSession):
		return ErrKindNoSession
	case errors.Is(err, ErrOverloaded):
		return ErrKindOverloaded
	case errors.Is(err, dynq.ErrDiskFull):
		// Checked before the generic kinds: a disk-full failure is more
		// actionable than "storage error" on the client side.
		return ErrKindDiskFull
	case errors.Is(err, dynq.ErrReadOnly):
		return ErrKindReadOnly
	case errors.Is(err, dynq.ErrNotFound):
		return ErrKindNotFound
	case errors.Is(err, dynq.ErrNoWAL):
		return ErrKindNoWAL
	case errors.Is(err, dynq.ErrNonFinite):
		return ErrKindNonFinite
	}
	return ""
}

// wireError carries the server's message while unwrapping to the typed
// sentinel, so errors.Is works client-side.
type wireError struct {
	msg      string
	sentinel error
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

// typedError reconstructs a typed error on the client from a response.
func typedError(req Request, resp Response) error {
	switch resp.ErrKind {
	case ErrKindUnknownOp:
		return &UnknownOpError{Op: req.Op}
	case ErrKindNoSession:
		return &wireError{msg: resp.Err, sentinel: ErrNoSession}
	case ErrKindOverloaded:
		return &wireError{msg: resp.Err, sentinel: ErrOverloaded}
	case ErrKindDiskFull:
		return &wireError{msg: resp.Err, sentinel: dynq.ErrDiskFull}
	case ErrKindReadOnly:
		return &wireError{msg: resp.Err, sentinel: dynq.ErrReadOnly}
	case ErrKindNotFound:
		return &wireError{msg: resp.Err, sentinel: dynq.ErrNotFound}
	case ErrKindNoWAL:
		return &wireError{msg: resp.Err, sentinel: dynq.ErrNoWAL}
	case ErrKindNonFinite:
		return &wireError{msg: resp.Err, sentinel: dynq.ErrNonFinite}
	}
	return errors.New(resp.Err)
}
