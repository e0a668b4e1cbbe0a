package netq

import (
	"encoding/gob"
	"errors"
	"io"
	"net"
)

// Protocol versions 1 and 2 spoke gob from the first byte. Version 3
// keeps gob only to refuse such a peer in words it can read.

// hello is a version 2 client's first message.
type hello struct {
	Magic   string
	Version int
}

// helloAck is a version 2 server's answer to a hello: its version, and a
// non-empty Err when it refuses the connection. Err lines up with
// Response.Err, so a version 1 client, which sends a Request straight
// away, reads the refusal as an error response.
type helloAck struct {
	Magic   string
	Version int
	Err     string
}

// refuseLegacy answers a peer whose first byte was not a hello's: a
// version 2 client's gob hello, a version 1 client's gob Request, or
// something else altogether.
func (s *Server) refuseLegacy(l *link) {
	var h hello
	err := gob.NewDecoder(l.r).Decode(&h)
	if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
		return
	}
	s.metrics.versionMismatches.Inc()
	verr := &VersionError{Local: ProtocolVersion, Remote: h.Version}
	attrs := []any{"remote", l.conn.RemoteAddr().String(), "magic", h.Magic, "peer_version", h.Version, "err", verr}
	if err != nil {
		attrs = append(attrs, "decode_err", err.Error())
	}
	s.logger.Warn("netq: rejected pre-v3 peer", attrs...)
	gob.NewEncoder(l.conn).Encode(helloAck{Magic: protocolMagic, Version: ProtocolVersion, Err: verr.Error()})
}

// legacyRefusal reads the gob helloAck with which a version 2 server
// refuses a hello.
func legacyRefusal(r io.Reader) error {
	var ack helloAck
	if err := gob.NewDecoder(r).Decode(&ack); err != nil {
		return &VersionError{Local: ProtocolVersion, Detail: "peer answered the hello in an unknown format"}
	}
	return &VersionError{Local: ProtocolVersion, Remote: ack.Version, Detail: ack.Err}
}
