package netq

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dynq"
)

// startServerAt is startServer pinned to a specific address, so a test
// can restart a server on the port a client is retrying against.
func startServerAt(t *testing.T, addr string, db dynq.Database) (string, func()) {
	t.Helper()
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := NewServer(db)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(l)
	}()
	return l.Addr().String(), func() {
		l.Close()
		srv.Close()
		wg.Wait()
	}
}

// TestReadRetriesAcrossServerRestart is the read half of the resilience
// acceptance criterion: with Reconnect enabled, a snapshot issued while
// the server is down succeeds transparently once it comes back, within
// the context deadline.
func TestReadRetriesAcrossServerRestart(t *testing.T) {
	db := testDB(t)
	addr, stop := startServerAt(t, "127.0.0.1:0", db)
	cl, err := DialWithOptions(addr, DialOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}
	before, err := cl.Snapshot(view, 0, 1)
	if err != nil {
		t.Fatalf("snapshot before restart: %v", err)
	}

	stop() // the client's connection is now dead
	dead := cl.link
	done := make(chan func(), 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		_, stop2 := startServerAt(t, addr, db)
		done <- stop2
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	after, err := cl.SnapshotCtx(ctx, view, 0, 1)
	defer (<-done)()
	if err != nil {
		t.Fatalf("snapshot across restart should retry to success, got: %v", err)
	}
	if len(after) != len(before) {
		t.Fatalf("snapshot across restart returned %d results, want %d", len(after), len(before))
	}
	if cl.link == nil || cl.link == dead {
		t.Fatal("the snapshot succeeded without redialing")
	}
}

// TestWriteFailsFastWhenServerDies is the write half of the acceptance
// criterion: in the same outage window a write must NOT be retried — it
// fails promptly with an error matching ErrConnectionLost, and once the
// server is back the object count shows the insert was never applied
// twice (or at all, here: the connection died before the request left).
func TestWriteFailsFastWhenServerDies(t *testing.T) {
	db := testDB(t)
	sizeBefore := mustSize(t, db)
	addr, stop := startServerAt(t, "127.0.0.1:0", db)
	cl, err := DialWithOptions(addr, DialOptions{Reconnect: true}) // reconnect applies to idempotent ops only
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 1000, Segment: seg(5, 5)}}); err != nil {
		t.Fatalf("insert before outage: %v", err)
	}

	stop()
	start := time.Now()
	err = cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 1001, Segment: seg(6, 6)}})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("insert against a dead server reported success")
	}
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("insert failure not typed: got %v, want errors.Is(err, ErrConnectionLost)", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("write took %v to fail — it must fail fast, not sit in a retry loop", elapsed)
	}

	if got, want := mustSize(t, db), sizeBefore+1; got != want {
		t.Fatalf("database holds %d segments, want %d (exactly one applied insert, none duplicated)", got, want)
	}
}

func mustSize(t *testing.T, db *dynq.DB) int {
	t.Helper()
	st, err := db.Stats()
	if err != nil {
		t.Fatal(err)
	}
	return st.Segments
}

func seg(x, y float64) dynq.Segment {
	return dynq.Segment{T0: 0, T1: 100, From: []float64{x, y}, To: []float64{x, y}}
}

// TestTelemetryRetriesAcrossServerRestart: the telemetry op changes
// nothing on the server, so a reconnecting client redials for it like
// for a read — a monitor polling across a server restart keeps its
// numbers instead of reporting the server unreachable.
func TestTelemetryRetriesAcrossServerRestart(t *testing.T) {
	db := testDB(t)
	addr, stop := startServerAt(t, "127.0.0.1:0", db)
	cl, err := DialWithOptions(addr, DialOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Telemetry(); err != nil {
		t.Fatalf("telemetry before restart: %v", err)
	}
	stop() // the client's connection is now dead
	_, stop2 := startServerAt(t, addr, db)
	defer stop2()
	if _, err := cl.Telemetry(); err != nil {
		t.Fatalf("telemetry after restart should redial, got: %v", err)
	}
}

// TestDialHandshakeTimeout reproduces the half-open-peer hang: a
// listener that accepts connections but never answers the handshake.
// Dial must fail within the handshake timeout instead of blocking
// forever.
func TestDialHandshakeTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold the connection open, say nothing
		}
	}()

	defer func(d time.Duration) { handshakeTimeout = d }(handshakeTimeout)
	handshakeTimeout = 200 * time.Millisecond
	start := time.Now()
	_, err = Dial(l.Addr().String())
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dialing a mute peer should fail")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("dial took %v, the 200ms handshake timeout did not bound it", elapsed)
	}
}

// TestCloseInterruptsInflightCall: Close from another goroutine must
// unblock a roundTrip stuck waiting for a response and surface
// ErrClientClosed.
func TestCloseInterruptsInflightCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// A fake server that handshakes correctly, then swallows the first
	// request without ever responding.
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		lk := newLink(conn)
		if _, _, err := readHello(lk.r); err != nil {
			return
		}
		if lk.write(appendAck(nil, ProtocolVersion, "")) != nil {
			return
		}
		if _, err := lk.recv(); err != nil {
			return
		}
		select {} // never answer
	}()

	cl, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}, 0, 1)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the call reach the blocked decode
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("interrupted call returned %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the in-flight call")
	}
	if _, err := cl.Stats(); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("call after Close returned %v, want ErrClientClosed", err)
	}
}

// TestReadOnlyErrorOverTheWire: a degraded (read-only) database must
// reject writes with an error that survives the wire as
// errors.Is(err, dynq.ErrReadOnly), while reads keep working.
func TestReadOnlyErrorOverTheWire(t *testing.T) {
	db := testDB(t)
	db.SetReadOnly(true)
	defer db.SetReadOnly(false)
	addr, stop := startServer(t, db)
	defer stop()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	err = cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 2000, Segment: seg(1, 1)}})
	if !errors.Is(err, dynq.ErrReadOnly) {
		t.Fatalf("insert against degraded server: got %v, want errors.Is(err, dynq.ErrReadOnly)", err)
	}
	if _, err := cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{100, 100}}, 0, 1); err != nil {
		t.Fatalf("reads must keep working in degraded mode: %v", err)
	}
}

// TestRetryBudgetExhausts: with the server gone for good, a retrying
// read gives up after its budget and reports the connection loss.
func TestRetryBudgetExhausts(t *testing.T) {
	db := testDB(t)
	addr, stop := startServerAt(t, "127.0.0.1:0", db)
	cl, err := DialWithOptions(addr, DialOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stop()
	_, err = cl.Snapshot(dynq.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}, 0, 1)
	if !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("exhausted retries returned %v, want errors.Is(err, ErrConnectionLost)", err)
	}
}

// TestRetryHonorsContextDeadline: the backoff loop must return the
// context's error as soon as the deadline passes, not sleep through it.
func TestRetryHonorsContextDeadline(t *testing.T) {
	db := testDB(t)
	addr, stop := startServerAt(t, "127.0.0.1:0", db)
	cl, err := DialWithOptions(addr, DialOptions{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stop()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = cl.SnapshotCtx(ctx, dynq.Rect{Min: []float64{0, 0}, Max: []float64{1, 1}}, 0, 1)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("call outlived its deadline by too much: %v", elapsed)
	}
}

// cancelOnRead cancels a call's context as that call's response arrives,
// and hands the response on only once the cancellation has set the
// connection's wake-up deadline: the race a context that expires just as
// the answer lands produces.
type cancelOnRead struct {
	net.Conn
	armed  chan context.CancelFunc
	wakeup chan struct{}
}

func (c *cancelOnRead) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	select {
	case cancel := <-c.armed:
		cancel()
		select {
		case <-c.wakeup:
		case <-time.After(5 * time.Second):
		}
	default:
	}
	return n, err
}

func (c *cancelOnRead) SetDeadline(t time.Time) error {
	err := c.Conn.SetDeadline(t)
	if t.Equal(time.Unix(1, 0)) {
		c.wakeup <- struct{}{}
	}
	return err
}

// TestCancelAfterResponseKeepsConnection: a context cancelled after its
// response has arrived must not leave the wake-up deadline on a healthy
// connection, or the next call — even a write, which is never retried —
// fails with an i/o timeout and the server-side sessions are lost.
func TestCancelAfterResponseKeepsConnection(t *testing.T) {
	srv := NewServer(testDB(t))
	defer srv.Close()
	cs, ss := net.Pipe()
	go srv.handle(ss)
	conn := &cancelOnRead{Conn: cs, armed: make(chan context.CancelFunc, 1), wakeup: make(chan struct{}, 1)}
	cl, err := newClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	view := dynq.Rect{Min: []float64{0, 0}, Max: []float64{10, 100}}
	want, err := cl.Snapshot(view, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	conn.armed <- cancel
	if _, err := cl.SnapshotCtx(ctx, view, 0, 1); err != nil {
		t.Fatalf("the call whose answer arrived before its context ended: %v", err)
	}
	if err := cl.ApplyUpdates([]dynq.MotionUpdate{{ID: 4242, Segment: seg(500, 500)}}); err != nil {
		t.Fatalf("write after a late cancellation: %v", err)
	}
	got, err := cl.Snapshot(view, 0, 1)
	if err != nil || len(got) != len(want) {
		t.Fatalf("read after a late cancellation: %d results, want %d (err %v)", len(got), len(want), err)
	}
}
