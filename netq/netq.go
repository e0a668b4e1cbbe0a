// Package netq exposes a dynq database over TCP, reflecting the paper's
// client/server architecture (Section 4): retrieval happens at the
// server, buffering at the client. A client opens one connection per
// query session; dynamic-query state (the PDQ priority queue, the NPDQ
// previous-snapshot memory) lives server-side with the connection, while
// the client keeps results in a ViewCache keyed on disappearance time.
//
// The wire protocol is request/response pairs, one in flight per
// connection, each message one length-prefixed binary frame (wire.go gives
// the layout). Across connections, read-only operations (snapshot, knn,
// stats) execute concurrently under a bounded admission-control gate (see
// Server.WithConcurrency); the one write op, apply-updates, is serialized
// by the database's writer lock, and dynamic-query session state stays
// serialized per connection.
package netq

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dynq"
	"dynq/internal/obs"
)

// ProtocolVersion is the netq wire protocol version. Peers exchange it
// in a hello/ack pair immediately after connecting, before the first
// request; a mismatch is rejected with a *VersionError so a change to
// the messages fails loudly against old binaries instead of being
// misread.
//
// History:
//
//	1  original gob request/response stream, no handshake (implicit)
//	2  gob hello/ack handshake; Request carries TraceID/SpanID.
//	   Later additions within 2: the telemetry op and the
//	   Response.Telemetry field, then the apply-updates op with the
//	   Request.Updates/Durability fields.
//	3  no gob: the hello and ack are raw bytes, and every request and
//	   response is one frame, u32 length | body, in a hand-written
//	   binary codec (wire.go). A request is an op code, the 16 + 8 raw
//	   bytes of the trace and span ids, then that op's fields in a fixed
//	   order; a response is an error kind and message, or that op's
//	   payload. Floats travel as their IEEE-754 bits; the telemetry op's
//	   payload is the JSON document /debug/telemetry serves. A v1 or v2
//	   peer was refused in gob it could read.
//	4  the insert, track-update, track-at, track-during and track-along
//	   ops retired; the op codes after each renumber.
//	5  the adaptive-start and adaptive-frame ops retired, with the
//	   Request.Adaptive and Response.Predictive fields; stats and
//	   telemetry renumber. A peer that does not open with a hello is
//	   counted as a version mismatch and closed, without a gob answer.
const ProtocolVersion = 5

// protocolMagic distinguishes a netq peer from an arbitrary TCP
// endpoint.
const protocolMagic = "dynq/netq"

// Op identifies a request type.
type Op string

// Protocol operations.
const (
	OpSnapshot     Op = "snapshot"      // independent snapshot query
	OpApplyUpdates Op = "apply-updates" // batched motion updates (one round trip)
	OpKNN          Op = "knn"           // k nearest neighbors at a time instant
	OpPDQStart     Op = "pdq-start"     // register a trajectory (one per conn)
	OpPDQFetch     Op = "pdq-fetch"     // fetch newly visible objects
	OpNPDQ         Op = "npdq"          // next snapshot of the NPDQ session
	OpNPDQReset    Op = "npdq-reset"    // forget NPDQ history (teleport)
	OpStats        Op = "stats"         // index statistics
	OpTelemetry    Op = "telemetry"     // server stats snapshot (SLOs, windows, runtime, events)
)

// Request is one client→server message. TraceID and SpanID carry the
// caller's trace context (obs.TraceContext wire form, version 2+): the
// server continues that trace, so one client operation yields a single
// correlated trace spanning the client call, the server op, and every
// per-shard traversal.
type Request struct {
	Op        Op
	TraceID   string
	SpanID    string
	View      dynq.Rect
	T0, T1    float64
	Waypoints []dynq.Waypoint
	Live      bool
	Point     []float64
	K         int
	// Updates and Durability carry the apply-updates op: a write batch
	// applied as one database write, with the requested dynq.Durability
	// level (meaningful when the server's database has a WAL armed).
	Updates    []dynq.MotionUpdate
	Durability dynq.Durability
}

// Response is one server→client message.
type Response struct {
	Err       string
	ErrKind   string // one of the ErrKind* constants, "" for untyped errors
	Results   []dynq.Result
	Neighbors []dynq.Neighbor
	Stats     dynq.IndexStats
	// Telemetry answers the telemetry op (nil for every other op).
	Telemetry *obs.Telemetry
}

// Server serves a database to network clients. Every server carries its
// own observability state: a metric registry (per-op request counts,
// error counts, latency histograms, connection/session gauges, buffer
// pool gauges) and a query tracer ring-buffering recent request spans
// with their per-stage cost deltas. Serve them over HTTP with
// obs.NewHandler.
type Server struct {
	db dynq.Database

	// Read admission control: read-only ops across all connections run
	// concurrently, bounded by readSem; past the bound they queue up to
	// maxQueue deep, and past that they are rejected with ErrOverloaded.
	// A nil readSem means unlimited read concurrency. Write ops bypass
	// the gate (the database's writer lock serializes them), and session
	// ops are serialized per connection by the one-request-in-flight
	// protocol.
	readSem       chan struct{}
	releaseRead   func() // frees a readSem slot; made once, not per read
	maxConcurrent int
	maxQueue      int
	queued        atomic.Int64

	reg     *obs.Registry
	tracer  *obs.Tracer
	tracing context.Context // carries tracer; each request's context derives from it
	metrics *serverMetrics
	tel     *serverTelemetry
	logger  *slog.Logger

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	serving bool // between the first Serve and Close: journals server_start/server_stop
	done    bool
}

// TracerCapacity is the number of recent query spans a server retains.
const TracerCapacity = 512

// NewServer wraps a database of one unit or many; the wire protocol is
// the same for both.
func NewServer(db dynq.Database) *Server {
	s := &Server{
		db:     db,
		conns:  make(map[net.Conn]struct{}),
		reg:    obs.NewRegistry(),
		tracer: obs.NewTracer(TracerCapacity),
		logger: obs.NopLogger(),
	}
	s.metrics = newServerMetrics(s)
	s.tracing = obs.ContextWithTracer(context.Background(), s.tracer)
	s.WithConcurrency(runtime.GOMAXPROCS(0), 0)
	s.tel = newServerTelemetry(s.reg)
	return s
}

// WithConcurrency configures read admission control: up to maxConcurrent
// read-only operations execute at once, up to maxQueue more wait for a
// slot, and anything beyond that is rejected with ErrOverloaded.
// maxConcurrent <= 0 removes the bound entirely; maxQueue <= 0 defaults
// to 4x maxConcurrent. The default (set by NewServer) is GOMAXPROCS
// concurrent reads. Call before Serve.
func (s *Server) WithConcurrency(maxConcurrent, maxQueue int) *Server {
	if maxConcurrent <= 0 {
		s.readSem = nil
		s.maxConcurrent = 0
		s.maxQueue = 0
		return s
	}
	if maxQueue <= 0 {
		maxQueue = 4 * maxConcurrent
	}
	sem := make(chan struct{}, maxConcurrent)
	s.readSem, s.releaseRead = sem, func() { <-sem }
	s.maxConcurrent = maxConcurrent
	s.maxQueue = maxQueue
	return s
}

// MaxConcurrent reports the read admission-control execution bound
// (0 = unlimited).
func (s *Server) MaxConcurrent() int { return s.maxConcurrent }

// MaxQueue reports the read admission-control queue bound.
func (s *Server) MaxQueue() int { return s.maxQueue }

// isReadOp classifies the ops that are safe to run concurrently: pure
// queries against the database's shared-lock read path. Everything else
// either writes (apply-updates) or touches per-connection session state.
// The telemetry op is deliberately NOT listed: it must bypass admission
// control so monitoring keeps seeing an overloaded server — overload is
// exactly when the numbers matter.
func isReadOp(op Op) bool {
	switch op {
	case OpSnapshot, OpKNN, OpStats:
		return true
	}
	return false
}

// idempotent classifies the ops a reconnecting client may resend after a
// transport failure: the read ops and the telemetry op, none of which
// changes server state.
func idempotent(op Op) bool { return isReadOp(op) || op == OpTelemetry }

// admitReadOp gates read ops through admission control; other ops pass
// straight through.
func (s *Server) admitReadOp(op Op) (func(), error) {
	if !isReadOp(op) {
		return func() {}, nil
	}
	return s.admitRead()
}

// admitRead acquires a read execution slot, waiting in the bounded queue
// if necessary. It returns a release func, or ErrOverloaded when the
// queue is full.
func (s *Server) admitRead() (func(), error) {
	if s.readSem == nil {
		return func() {}, nil
	}
	release := s.releaseRead
	start := time.Now()
	select {
	case s.readSem <- struct{}{}:
		s.metrics.admissionWait.Observe(time.Since(start).Seconds())
		return release, nil
	default:
	}
	if q := s.queued.Add(1); q > int64(s.maxQueue) {
		s.queued.Add(-1)
		return nil, fmt.Errorf("%w (%d executing, %d queued)", ErrOverloaded, s.maxConcurrent, s.maxQueue)
	}
	s.readSem <- struct{}{}
	s.queued.Add(-1)
	s.metrics.admissionWait.Observe(time.Since(start).Seconds())
	return release, nil
}

// WithLogger installs a structured logger for connection lifecycle and
// request-scoped log lines (each carrying the request's trace and span
// ids). The default discards everything. Call before Serve.
func (s *Server) WithLogger(l *slog.Logger) *Server {
	if l != nil {
		s.logger = l
	}
	return s
}

// Registry exposes the server's metric registry (for /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Tracer exposes the server's query tracer (for /debug/trace).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Serve accepts connections until the listener closes. It always returns
// a non-nil error (net.ErrClosed after Close). The first Serve of an
// open server journals server_start.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	start := !s.serving && !s.done
	if start {
		s.serving = true
	}
	s.mu.Unlock()
	if start {
		obs.DefaultJournal().Record(obs.EventServerStart, obs.SeverityInfo,
			"netq server accepting connections", nil)
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// Close terminates all client connections and journals the overload
// burst still open, if any; a server that served journals server_stop
// on its first Close.
func (s *Server) Close() {
	s.mu.Lock()
	s.done = true
	for c := range s.conns {
		c.Close()
	}
	clear(s.conns)
	stop := s.serving
	s.serving = false
	s.mu.Unlock()
	s.flushOverload()
	if stop {
		obs.DefaultJournal().Record(obs.EventServerStop, obs.SeverityInfo,
			"netq server shut down", nil)
	}
}

func (s *Server) handle(conn net.Conn) {
	s.metrics.activeConns.Inc()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.metrics.activeConns.Dec()
	}()
	l := newLink(&countingConn{Conn: conn, in: s.metrics.bytesIn, out: s.metrics.bytesOut})
	if !s.greet(l) {
		return
	}
	s.logger.Debug("netq: connection open", "remote", conn.RemoteAddr().String())
	defer s.logger.Debug("netq: connection closed", "remote", conn.RemoteAddr().String())

	// Per-connection session state.
	sess := &connSessions{npdq: s.db.NonPredictive(dynq.NonPredictiveOptions{})}
	defer s.closeSessions(sess)

	for {
		body, err := l.recv()
		if err != nil {
			return // disconnect (io.EOF) or a broken frame
		}
		// A malformed body leaves the framing intact: answer it and go on.
		req, err := decodeRequest(body)
		var resp Response
		if err != nil {
			s.logger.Warn("netq: malformed request", "remote", conn.RemoteAddr().String(), "err", err)
			resp = Response{Err: err.Error()}
		} else {
			resp = s.serve(sess, req)
		}
		out, err := appendResponse(l.out, req.Op, resp)
		if err != nil {
			// The answer cannot be sent (too large, or its telemetry has
			// no JSON form): send the reason instead.
			out, _ = appendResponse(out, req.Op, Response{Err: err.Error()})
		}
		if l.write(out) != nil {
			return
		}
	}
}

// greet runs the server's half of the handshake and reports whether the
// connection was accepted.
func (s *Server) greet(l *link) bool {
	lead, err := l.r.Peek(1)
	if err != nil {
		return false // gone before saying anything
	}
	if lead[0] != helloLead {
		// A pre-v3 peer, which speaks gob, or no netq peer at all.
		s.metrics.versionMismatches.Inc()
		s.logger.Warn("netq: rejected peer", "remote", l.conn.RemoteAddr().String(),
			"lead_byte", lead[0], "err", &VersionError{Local: ProtocolVersion, Detail: "peer did not open with a hello"})
		return false
	}
	magic, version, err := readHello(l.r)
	if err != nil {
		return false
	}
	if magic != protocolMagic || version != ProtocolVersion {
		s.metrics.versionMismatches.Inc()
		verr := &VersionError{Local: ProtocolVersion, Remote: version}
		s.logger.Warn("netq: rejected peer", "remote", l.conn.RemoteAddr().String(),
			"magic", magic, "peer_version", version, "err", verr)
		l.write(appendAck(l.out, ProtocolVersion, verr.Error()))
		return false
	}
	return l.write(appendAck(l.out, ProtocolVersion, "")) == nil
}

// serve wraps dispatch with instrumentation: per-op request/error
// counters and latency histograms, typed-error counters, a structured
// log line, and one tracer span carrying the cost-counter deltas
// measured around the request, decomposed by pipeline stage. The
// counters are server-wide, so under concurrent connections a span's
// delta may include work charged by overlapping requests.
//
// The request's trace context (from the wire header, or a fresh root
// when the client sent none) is continued into a child span for the
// server-side op and threaded — together with the server's tracer —
// through the request context, so a sharded backend's fan-out records
// per-shard grandchild spans under the same trace.
func (s *Server) serve(sess *connSessions, req Request) Response {
	tc, _ := obs.ContinueTrace(req.TraceID, req.SpanID)
	ctx := obs.ContextWithTrace(s.tracing, tc)

	start := time.Now()
	before := s.db.CostSnapshot()
	var resp Response
	if release, aerr := s.admitReadOp(req.Op); aerr != nil {
		resp = Response{Err: aerr.Error(), ErrKind: errKind(aerr)}
	} else {
		s.metrics.inflightOps.Inc()
		resp = s.dispatch(ctx, sess, req)
		s.metrics.inflightOps.Dec()
		release()
	}
	elapsed := time.Since(start)
	delta := s.db.CostSnapshot().Sub(before)

	m := s.metrics
	if om, known := m.perOp[req.Op]; known {
		om.requests.Inc()
		if resp.Err != "" {
			om.errors.Inc()
		}
	}
	switch resp.ErrKind {
	case ErrKindUnknownOp:
		m.unknownOps.Inc()
	case ErrKindOverloaded:
		m.overloads.Inc()
		s.noteOverload()
	}

	span := obs.Span{
		Op:      string(req.Op),
		Shard:   obs.NoShard,
		Start:   start,
		WallNS:  elapsed.Nanoseconds(),
		T0:      req.T0,
		T1:      req.T1,
		Results: len(resp.Results),
		Err:     resp.Err,
	}
	tc.Annotate(&span)
	if len(req.View.Min) > 0 {
		span.ViewMin = req.View.Min
		span.ViewMax = req.View.Max
	}
	if engine, ok := engineFor(req.Op); ok {
		span.Stages = obs.Stages(delta, engine)
	}
	s.tracer.Record(span)
	s.tel.record(req.Op, elapsed, resp.Err != "", span)

	lvl := slog.LevelDebug
	if resp.Err != "" {
		lvl = slog.LevelWarn
	}
	s.logger.LogAttrs(context.Background(), lvl, "netq: request",
		slog.String("op", string(req.Op)),
		slog.String("trace_id", span.TraceID),
		slog.String("span_id", span.SpanID),
		slog.Duration("elapsed", elapsed),
		slog.Int("results", len(resp.Results)),
		slog.Int64("reads", delta.Reads()),
		slog.String("err", resp.Err))
	return resp
}

// connSessions is the dynamic-query state tied to one connection. The
// cursors are held as the interface forms so the server works unchanged
// over single-tree and sharded backends.
type connSessions struct {
	pdq  dynq.PredictiveCursor
	npdq dynq.NonPredictiveCursor
}

func (s *Server) closeSessions(cs *connSessions) {
	if cs.pdq != nil {
		cs.pdq.Close()
		s.metrics.activePDQ.Dec()
	}
}

func (s *Server) dispatch(ctx context.Context, sess *connSessions, req Request) Response {
	pdq, npdq := &sess.pdq, sess.npdq
	fail := func(err error) Response { return Response{Err: err.Error(), ErrKind: errKind(err)} }
	switch req.Op {
	case OpSnapshot:
		rs, err := s.db.SnapshotCtx(ctx, req.View, req.T0, req.T1)
		if err != nil {
			return fail(err)
		}
		return Response{Results: rs}
	case OpApplyUpdates:
		if err := s.db.ApplyUpdates(ctx, req.Updates, dynq.WriteOptions{Durability: req.Durability}); err != nil {
			return fail(err)
		}
		return Response{}
	case OpKNN:
		nbs, err := s.db.KNNCtx(ctx, req.Point, req.T0, req.K)
		if err != nil {
			return fail(err)
		}
		return Response{Neighbors: nbs}
	case OpPDQStart:
		if *pdq != nil {
			(*pdq).Close()
			*pdq = nil
			s.metrics.activePDQ.Dec()
		}
		sess, err := s.db.Predictive(req.Waypoints, dynq.PredictiveOptions{Live: req.Live})
		if err != nil {
			return fail(err)
		}
		*pdq = sess
		s.metrics.activePDQ.Inc()
		return Response{}
	case OpPDQFetch:
		if *pdq == nil {
			return fail(fmt.Errorf("%w: predictive (start with %s)", ErrNoSession, OpPDQStart))
		}
		rs, err := (*pdq).Fetch(req.T0, req.T1)
		if err != nil {
			return fail(err)
		}
		return Response{Results: rs}
	case OpNPDQ:
		rs, err := npdq.Snapshot(req.View, req.T0, req.T1)
		if err != nil {
			return fail(err)
		}
		return Response{Results: rs}
	case OpNPDQReset:
		npdq.Reset()
		return Response{}
	case OpStats:
		st, err := s.db.Stats()
		if err != nil {
			return fail(err)
		}
		return Response{Stats: st}
	case OpTelemetry:
		tel := s.Telemetry()
		return Response{Telemetry: &tel}
	default:
		return fail(&UnknownOpError{Op: req.Op})
	}
}

// DialOptions tune the client's resilience behavior. The zero value
// gives no automatic reconnection.
type DialOptions struct {
	// Reconnect enables transparent redial-and-retry for IDEMPOTENT
	// operations (snapshot, knn, stats, telemetry) after
	// a transport failure: up to retryMax redials per call, backing off
	// from retryBase to retryMaxDelay. Writes and session operations are
	// NEVER retried — a lost write may or may not have been applied, and
	// retrying could duplicate it; they fail fast with an error matching
	// errors.Is(err, ErrConnectionLost).
	Reconnect bool
}

// handshakeTimeout bounds a dial's TCP connect plus the protocol
// handshake, so dialing a half-open or wedged peer fails instead of
// hanging forever. A variable only so tests can shorten it.
var handshakeTimeout = 5 * time.Second

// A reconnecting client redials at most retryMax times per call; the
// first backoff is retryBase, doubling up to retryMaxDelay, each jittered
// ±50%.
const (
	retryMax      = 8
	retryBase     = 25 * time.Millisecond
	retryMaxDelay = time.Second
)

// ErrConnectionLost is wrapped by every client error caused by a
// transport failure (peer restart, broken pipe, failed redial) — as
// opposed to an error the server itself returned. A write that fails
// with it may or may not have been applied; the caller must decide
// whether re-sending is safe.
var ErrConnectionLost = errors.New("netq: connection lost")

// ErrClientClosed is returned by calls made after (or interrupted by)
// Client.Close.
var ErrClientClosed = errors.New("netq: client closed")

// Client is a connection to a dqserver. Request methods are safe for
// sequential use only (one request in flight per connection); Close may
// be called concurrently and interrupts an in-flight call.
type Client struct {
	addr   string // "" when wrapped around an existing conn (no redial)
	opts   DialOptions
	closed atomic.Bool

	mu   sync.Mutex // guards link replacement, not request I/O
	link *link      // nil once the connection is dropped
}

// Dial connects to a server and performs the protocol handshake, both
// bounded by a 5-second handshake timeout.
func Dial(addr string) (*Client, error) {
	return DialWithOptions(addr, DialOptions{})
}

// DialWithOptions is Dial with explicit resilience options.
func DialWithOptions(addr string, opts DialOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts}
	l, err := c.dialOnce()
	if err != nil {
		return nil, err
	}
	c.link = l
	return c, nil
}

// dialOnce establishes and handshakes one connection under the
// handshake timeout.
func (c *Client) dialOnce() (*link, error) {
	conn, err := net.DialTimeout("tcp", c.addr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	l, err := handshake(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return l, nil
}

// handshake performs the version exchange on conn, bounded by the
// handshake timeout so a half-open peer cannot hang the caller forever.
func handshake(conn net.Conn) (*link, error) {
	conn.SetDeadline(time.Now().Add(handshakeTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(appendHello(nil, ProtocolVersion)); err != nil {
		return nil, fmt.Errorf("netq: handshake send: %w", err)
	}
	l := newLink(conn)
	lead, err := l.r.Peek(1)
	if err == nil && lead[0] != helloLead {
		// A pre-v3 server answers the hello in gob.
		return nil, &VersionError{Local: ProtocolVersion, Detail: "peer answered the hello in an unknown format"}
	}
	var magic string
	var version int
	var refusal []byte
	if err == nil {
		magic, version, err = readHello(l.r)
	}
	if err == nil {
		refusal, err = l.recv()
	}
	if err != nil {
		if isTimeout(err) {
			return nil, fmt.Errorf("netq: handshake timed out after %v (peer accepted but never answered): %w", handshakeTimeout, err)
		}
		// A v1 server chokes on the hello and drops the connection,
		// surfacing here as EOF: classify that as a version mismatch, not
		// an I/O mystery.
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
			return nil, &VersionError{Local: ProtocolVersion, Remote: 0,
				Detail: "peer closed the connection during the handshake"}
		}
		return nil, fmt.Errorf("netq: handshake read: %w", err)
	}
	if magic != protocolMagic || version != ProtocolVersion {
		return nil, &VersionError{Local: ProtocolVersion, Remote: version, Detail: string(refusal)}
	}
	if len(refusal) > 0 {
		return nil, errors.New(string(refusal))
	}
	return l, nil
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close terminates the connection (and the server-side sessions). It is
// safe to call while a request is blocked in I/O: the call unblocks and
// returns ErrClientClosed.
func (c *Client) Close() error {
	c.closed.Store(true)
	c.mu.Lock()
	l := c.link
	c.link = nil
	c.mu.Unlock()
	if l != nil {
		return l.conn.Close()
	}
	return nil
}

// current returns the live connection, redialing if the previous one was
// dropped. Redialing is safe even before a write: nothing has been sent
// on the new connection yet.
func (c *Client) current() (*link, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClientClosed
	}
	if c.link != nil {
		return c.link, nil
	}
	if c.addr == "" {
		return nil, fmt.Errorf("%w: no address to reconnect (client wraps an existing connection)", ErrConnectionLost)
	}
	l, err := c.dialOnce()
	if err != nil {
		return nil, fmt.Errorf("%w: redial %s: %w", ErrConnectionLost, c.addr, err)
	}
	c.link = l
	return l, nil
}

// drop discards l if it is still the client's current connection.
// Called after any transport error: a half-finished exchange leaves the
// stream mid-frame, so the connection must not be reused.
func (c *Client) drop(l *link) {
	c.mu.Lock()
	if c.link == l {
		c.link = nil
	}
	c.mu.Unlock()
	l.conn.Close()
}

// transportError marks an exchange failure caused by the transport (as
// opposed to an error the server returned in a Response).
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// exchange performs one request/response pair on the current connection,
// honoring the context: cancellation (or the context's deadline)
// interrupts blocked connection I/O immediately. Transport failures come
// back as *transportError and drop the connection.
func (c *Client) exchange(ctx context.Context, req Request) (Response, error) {
	l, err := c.current()
	if err != nil {
		if errors.Is(err, ErrClientClosed) {
			return Response{}, err
		}
		return Response{}, &transportError{err: err}
	}
	out, err := appendRequest(l.out, req)
	if err != nil {
		return Response{}, err // nothing was sent
	}
	if ctx.Done() != nil {
		woken := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			l.conn.SetDeadline(time.Unix(1, 0)) // wake any blocked read/write
			close(woken)
		})
		defer func() {
			// Once the wake-up has run, its deadline stays on the
			// connection: clear it, or an exchange that completed anyway
			// leaves the next call to fail. (A failed exchange has closed
			// the connection already.)
			if !stop() {
				<-woken
				l.conn.SetDeadline(time.Time{})
			}
		}()
	}
	if err := l.write(out); err != nil {
		c.drop(l)
		return Response{}, &transportError{err: ctxError(ctx, err)}
	}
	var resp Response
	body, err := l.recv()
	if err == nil {
		resp, err = decodeResponse(req.Op, body)
	}
	if err != nil {
		c.drop(l)
		if errors.Is(err, io.EOF) {
			return Response{}, &transportError{err: fmt.Errorf("netq: server closed the connection")}
		}
		return Response{}, &transportError{err: ctxError(ctx, err)}
	}
	if resp.Err != "" {
		return Response{}, typedError(req, resp)
	}
	return resp, nil
}

// roundTrip sends one request and awaits its response. With
// DialOptions.Reconnect set, idempotent operations that hit a transport
// failure are transparently retried over a fresh connection with capped
// exponential backoff, within the context's deadline and the per-call
// retry budget. Writes and session ops never retry: they fail
// with an error matching errors.Is(err, ErrConnectionLost), leaving the
// resend decision to the caller.
func (c *Client) roundTrip(ctx context.Context, req Request) (Response, error) {
	if c.closed.Load() {
		return Response{}, ErrClientClosed
	}
	if err := ctx.Err(); err != nil {
		return Response{}, err
	}
	// Propagate the caller's trace context (or start a fresh trace) in
	// the request header, so the server's op and per-shard spans share
	// one trace id with this call.
	tc, ok := obs.TraceFromContext(ctx)
	if !ok {
		tc = obs.NewTraceContext()
	}
	req.TraceID, req.SpanID = hexIDs(tc.TraceID, tc.SpanID)

	retriable := c.opts.Reconnect && c.addr != "" && idempotent(req.Op)
	for attempt := 0; ; attempt++ {
		resp, err := c.exchange(ctx, req)
		if err == nil {
			return resp, nil
		}
		var terr *transportError
		if !errors.As(err, &terr) {
			return resp, err // an error the server returned
		}
		if c.closed.Load() {
			return Response{}, ErrClientClosed
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return Response{}, ctxErr
		}
		if !retriable || attempt >= retryMax {
			if errors.Is(terr.err, ErrConnectionLost) {
				return Response{}, terr.err
			}
			return Response{}, fmt.Errorf("%w: %w", ErrConnectionLost, terr.err)
		}
		if err := sleepBackoff(ctx, attempt); err != nil {
			return Response{}, err
		}
	}
}

// sleepBackoff waits retryBase*2^attempt capped at retryMaxDelay,
// jittered ±50%, or until the context is done.
func sleepBackoff(ctx context.Context, attempt int) error {
	d := retryBase << uint(attempt)
	if d > retryMaxDelay || d <= 0 {
		d = retryMaxDelay
	}
	d = d/2 + time.Duration(rand.Int64N(int64(d)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// ctxError prefers the context's error over the I/O timeout it provoked.
func ctxError(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	return err
}

// Snapshot runs an independent snapshot query.
func (c *Client) Snapshot(view dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	return c.SnapshotCtx(context.Background(), view, t0, t1)
}

// SnapshotCtx is Snapshot with cooperative cancellation.
func (c *Client) SnapshotCtx(ctx context.Context, view dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpSnapshot, View: view, T0: t0, T1: t1})
	return resp.Results, err
}

// ApplyUpdates sends a batch of motion updates applied as ONE database
// write on the server: one round trip, one lock acquisition, one WAL
// record — the high-rate ingest path. Updates apply in slice order. It
// requests DurabilityDefault: group-commit durable when the server has
// a log armed, plain in-memory otherwise. Callers that must not be
// acked by a WAL-less server pass an explicit level via
// ApplyUpdatesCtx and handle dynq.ErrNoWAL.
func (c *Client) ApplyUpdates(updates []dynq.MotionUpdate) error {
	return c.ApplyUpdatesCtx(context.Background(), updates, dynq.DurabilityDefault)
}

// ApplyUpdatesCtx is ApplyUpdates with cooperative cancellation and an
// explicit durability level (meaningful when the server database has a
// WAL armed). Like every write it is never auto-retried: a transport
// failure surfaces as ErrConnectionLost and the batch may or may not
// have been applied.
func (c *Client) ApplyUpdatesCtx(ctx context.Context, updates []dynq.MotionUpdate, d dynq.Durability) error {
	_, err := c.roundTrip(ctx, Request{Op: OpApplyUpdates, Updates: updates, Durability: d})
	return err
}

// KNN asks for the k objects nearest to point at time t.
func (c *Client) KNN(point []float64, t float64, k int) ([]dynq.Neighbor, error) {
	return c.KNNCtx(context.Background(), point, t, k)
}

// KNNCtx is KNN with cooperative cancellation.
func (c *Client) KNNCtx(ctx context.Context, point []float64, t float64, k int) ([]dynq.Neighbor, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpKNN, Point: point, T0: t, K: k})
	return resp.Neighbors, err
}

// StartPredictive registers the observer trajectory for this connection.
func (c *Client) StartPredictive(waypoints []dynq.Waypoint, live bool) error {
	return c.StartPredictiveCtx(context.Background(), waypoints, live)
}

// StartPredictiveCtx is StartPredictive with cooperative cancellation.
func (c *Client) StartPredictiveCtx(ctx context.Context, waypoints []dynq.Waypoint, live bool) error {
	_, err := c.roundTrip(ctx, Request{Op: OpPDQStart, Waypoints: waypoints, Live: live})
	return err
}

// FetchPredictive returns the objects becoming visible during [t0, t1].
func (c *Client) FetchPredictive(t0, t1 float64) ([]dynq.Result, error) {
	return c.FetchPredictiveCtx(context.Background(), t0, t1)
}

// FetchPredictiveCtx is FetchPredictive with cooperative cancellation.
func (c *Client) FetchPredictiveCtx(ctx context.Context, t0, t1 float64) ([]dynq.Result, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpPDQFetch, T0: t0, T1: t1})
	return resp.Results, err
}

// NonPredictive evaluates the next snapshot of this connection's
// non-predictive dynamic query.
func (c *Client) NonPredictive(view dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	return c.NonPredictiveCtx(context.Background(), view, t0, t1)
}

// NonPredictiveCtx is NonPredictive with cooperative cancellation.
func (c *Client) NonPredictiveCtx(ctx context.Context, view dynq.Rect, t0, t1 float64) ([]dynq.Result, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpNPDQ, View: view, T0: t0, T1: t1})
	return resp.Results, err
}

// ResetNonPredictive forgets the NPDQ history (observer teleported).
func (c *Client) ResetNonPredictive() error {
	return c.ResetNonPredictiveCtx(context.Background())
}

// ResetNonPredictiveCtx is ResetNonPredictive with cooperative
// cancellation.
func (c *Client) ResetNonPredictiveCtx(ctx context.Context) error {
	_, err := c.roundTrip(ctx, Request{Op: OpNPDQReset})
	return err
}

// Stats fetches index statistics.
func (c *Client) Stats() (dynq.IndexStats, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats with cooperative cancellation.
func (c *Client) StatsCtx(ctx context.Context) (dynq.IndexStats, error) {
	resp, err := c.roundTrip(ctx, Request{Op: OpStats})
	return resp.Stats, err
}
