package netq

import (
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
)

// TestOldClientRejectedLoudly simulates a pre-handshake (v1) client: its
// first message is a gob Request, which the server must reject with a
// readable version-mismatch error delivered through the Response.Err
// field old clients already decode — not by feeding garbage into their
// gob stream.
func TestOldClientRejectedLoudly(t *testing.T) {
	db := testDB(t)
	srv, addr, stop := startServerKeep(t, db)
	defer stop()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	// A v1 client sends a Request straight away.
	if err := enc.Encode(Request{Op: OpSnapshot}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("old client got a broken stream instead of an error response: %v", err)
	}
	if !strings.Contains(resp.Err, "version mismatch") {
		t.Errorf("rejection message = %q, want a version mismatch", resp.Err)
	}
	// The rejection is visible in the server's metrics.
	if got := srv.Registry().Export()["netq_version_mismatches_total"]; got != int64(1) {
		t.Errorf("netq_version_mismatches_total = %v, want 1", got)
	}
}

// TestNewClientAgainstOldServer simulates a v1 server: it tries to
// decode the first message as a gob Request, chokes on the hello and
// drops the connection — exactly what the pre-handshake handler did on a
// protocol error. NewClient must turn that into a typed *VersionError
// instead of silently desynchronizing.
func TestNewClientAgainstOldServer(t *testing.T) {
	cs, ss := net.Pipe()
	go func() {
		defer ss.Close()
		dec := gob.NewDecoder(ss)
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // v1 handler: disconnect on protocol error
		}
		gob.NewEncoder(ss).Encode(Response{Err: `netq: unknown op ""`, ErrKind: ErrKindUnknownOp})
	}()

	_, err := NewClient(cs)
	if err == nil {
		cs.Close()
		t.Fatal("handshake against a v1 server succeeded")
	}
	var verr *VersionError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v (%T), want *VersionError", err, err)
	}
	if verr.Local != ProtocolVersion || verr.Remote != 0 {
		t.Errorf("VersionError = %+v, want local v%d / remote v0", verr, ProtocolVersion)
	}
	cs.Close()
}

// TestNonNetqPeerRejected: a peer speaking the right gob framing but the
// wrong magic is refused.
func TestNonNetqPeerRejected(t *testing.T) {
	db := testDB(t)
	_, addr, stop := startServerKeep(t, db)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(hello{Magic: "some-other-protocol", Version: ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatal(err)
	}
	if ack.Err == "" || !strings.Contains(ack.Err, "version mismatch") {
		t.Errorf("ack = %+v, want a rejection", ack)
	}
}

// TestV2ClientRejected: a version 2 client opens with a gob hello and
// reads a gob ack; it gets one naming the mismatch.
func TestV2ClientRejected(t *testing.T) {
	db := testDB(t)
	srv, addr, stop := startServerKeep(t, db)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
	if err := enc.Encode(hello{Magic: protocolMagic, Version: 2}); err != nil {
		t.Fatal(err)
	}
	var ack helloAck
	if err := dec.Decode(&ack); err != nil {
		t.Fatalf("v2 client got a broken stream instead of a refusal: %v", err)
	}
	if ack.Version != ProtocolVersion || !strings.Contains(ack.Err, "local v4, peer v2") {
		t.Errorf("ack = %+v, want a v4 refusal naming the peer's v2", ack)
	}
	if got := srv.Registry().Export()["netq_version_mismatches_total"]; got != int64(1) {
		t.Errorf("netq_version_mismatches_total = %v, want 1", got)
	}
}

// TestNewClientAgainstV2Server simulates a version 2 server: its gob
// decoder fails on the hello's first byte at once, and it answers with
// a gob ack refusing the connection. The client reports the mismatch
// with the server's version.
func TestNewClientAgainstV2Server(t *testing.T) {
	cs, ss := net.Pipe()
	go func() {
		defer ss.Close()
		var h hello
		err := gob.NewDecoder(ss).Decode(&h)
		if err == nil {
			return // a v2 server would accept a v2 hello; the test then fails below
		}
		verr := &VersionError{Local: 2, Remote: 0}
		gob.NewEncoder(ss).Encode(helloAck{Magic: protocolMagic, Version: 2, Err: verr.Error()})
	}()
	_, err := NewClient(cs)
	cs.Close()
	var verr *VersionError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v (%T), want *VersionError", err, err)
	}
	if verr.Local != ProtocolVersion || verr.Remote != 2 {
		t.Errorf("VersionError = %+v, want local v%d / remote v2", verr, ProtocolVersion)
	}
}

// TestNewerClientRefused: a hello of another version is answered with an
// ack carrying the server's version and the reason. A v3 peer speaks the
// same framing but numbers its ops differently (v4 retired five), so it
// is refused the same way.
func TestNewerClientRefused(t *testing.T) {
	db := testDB(t)
	_, addr, stop := startServerKeep(t, db)
	defer stop()
	for _, peer := range []int{ProtocolVersion + 1, 3} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(appendHello(nil, peer)); err != nil {
			t.Fatal(err)
		}
		l := newLink(conn)
		magic, version, err := readHello(l.r)
		if err != nil {
			t.Fatal(err)
		}
		refusal, err := l.recv()
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("version mismatch: local v4, peer v%d", peer)
		if magic != protocolMagic || version != ProtocolVersion || !strings.Contains(string(refusal), want) {
			t.Errorf("v%d hello: ack magic %q version %d refusal %q, want a v4 refusal", peer, magic, version, refusal)
		}
	}
}
