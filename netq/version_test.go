package netq

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Protocol versions 1 and 2 spoke gob from the first byte. These tests play
// such peers with gob, which the package itself no longer imports.

// v2Hello is a version 2 client's first message.
type v2Hello struct {
	Magic   string
	Version int
}

// v2HelloAck is a version 2 server's answer to a hello.
type v2HelloAck struct {
	Magic   string
	Version int
	Err     string
}

// newClient wraps an established connection (a net.Pipe end, say) and
// performs the protocol handshake. A client built this way cannot
// reconnect: it has no address to redial.
func newClient(conn net.Conn) (*Client, error) {
	l, err := handshake(conn)
	if err != nil {
		return nil, err
	}
	return &Client{link: l}, nil
}

// lockedBuffer is a log sink the server's goroutines write to while the
// test reads it.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// refusedPeer connects to a fresh server, opens the connection with the
// bytes of some peer that is not a v5 client, and checks the refusal: the
// server answers nothing and closes the connection, counts one version
// mismatch and logs the peer.
func refusedPeer(t *testing.T, opening []byte) {
	t.Helper()
	var log lockedBuffer
	srv := NewServer(testDB(t)).WithLogger(slog.New(slog.NewTextHandler(&log, nil)))
	addr, stop := serveOn(t, srv)
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(opening); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// A close with the peer's bytes unread arrives as a reset.
	answer, err := io.ReadAll(conn)
	if len(answer) > 0 || err != nil && !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("server answered %q and ended with %v, want a close without an answer", answer, err)
	}
	if got := srv.metrics.versionMismatches.Value(); got != 1 {
		t.Errorf("netq_version_mismatches_total = %d, want 1", got)
	}
	if !strings.Contains(log.String(), "rejected peer") {
		t.Errorf("log = %q, want the rejected peer", log.String())
	}
}

// TestOldClientRejectedLoudly: a pre-handshake (v1) client's first message
// is a gob Request; the server counts, logs and closes it.
func TestOldClientRejectedLoudly(t *testing.T) {
	refusedPeer(t, gobBytes(t, Request{Op: OpSnapshot}))
}

// TestV2ClientRejected: a version 2 client opens with a gob hello; the
// server counts, logs and closes it.
func TestV2ClientRejected(t *testing.T) {
	refusedPeer(t, gobBytes(t, v2Hello{Magic: protocolMagic, Version: 2}))
}

// TestNonNetqPeerRejected: a peer of another protocol altogether is refused
// the same way.
func TestNonNetqPeerRejected(t *testing.T) {
	refusedPeer(t, []byte("GET / HTTP/1.1\r\nHost: dqserver\r\n\r\n"))
}

// gobBytes is a gob stream's opening message: v's type, then v.
func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestNewClientAgainstOldServer simulates a v1 server: it tries to
// decode the first message as a gob Request, chokes on the hello and
// drops the connection — exactly what the pre-handshake handler did on a
// protocol error. The client must turn that into a typed *VersionError
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

	_, err := newClient(cs)
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

// TestNewClientAgainstV2Server simulates a version 2 server: its gob
// decoder fails on the hello's first byte at once, and it answers with
// a gob ack refusing the connection. A reply that is not a hello is a
// *VersionError.
func TestNewClientAgainstV2Server(t *testing.T) {
	cs, ss := net.Pipe()
	go func() {
		defer ss.Close()
		var h v2Hello
		err := gob.NewDecoder(ss).Decode(&h)
		if err == nil {
			return // a v2 server would accept a v2 hello; the test then fails below
		}
		verr := &VersionError{Local: 2, Remote: 0}
		gob.NewEncoder(ss).Encode(v2HelloAck{Magic: protocolMagic, Version: 2, Err: verr.Error()})
	}()
	_, err := newClient(cs)
	cs.Close()
	var verr *VersionError
	if !errors.As(err, &verr) {
		t.Fatalf("err = %v (%T), want *VersionError", err, err)
	}
	if verr.Local != ProtocolVersion || !strings.Contains(verr.Detail, "unknown format") {
		t.Errorf("VersionError = %+v, want local v%d and a reply in an unknown format", verr, ProtocolVersion)
	}
}

// TestNewerClientRefused: a hello of another version is answered with an
// ack carrying the server's version and the reason. A v3 or v4 peer speaks
// the same framing but numbers its ops differently (v4 retired five ops,
// v5 two more), so it is refused the same way.
func TestNewerClientRefused(t *testing.T) {
	db := testDB(t)
	_, addr, stop := startServerKeep(t, db)
	defer stop()
	for _, peer := range []int{ProtocolVersion + 1, 4, 3} {
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
		want := fmt.Sprintf("version mismatch: local v%d, peer v%d", ProtocolVersion, peer)
		if magic != protocolMagic || version != ProtocolVersion || !strings.Contains(string(refusal), want) {
			t.Errorf("v%d hello: ack magic %q version %d refusal %q, want a v%d refusal", peer, magic, version, refusal, ProtocolVersion)
		}
	}
}
