package netq

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"

	"dynq"
	"dynq/internal/obs"
)

// The version 5 wire format. After the handshake every message is one
// frame:
//
//	u32 length | body                 little-endian, length ≤ maxFrame
//
// A request body is
//
//	u8 op code | op name (code 0 only) | 16-byte trace id | 8-byte span id |
//	u32 float count | the op's request fields
//
// and a response body is either
//
//	u8 0 | u32 float count | the op's response fields
//	u8 1 | error kind | error message
//
// The fields an op carries, and their order, are its wireOps entry; the
// order of the field bits is the order on the wire. Encodings:
//
//	float64            8 bytes, IEEE-754 bits, so every value is bit-exact
//	id, uint64         8 bytes
//	int                zig-zag varint
//	bool               1 byte, 0 or 1
//	string             uvarint length | bytes
//	slice              uvarint count+1 (0 is nil) | elements
//	Rect               Min []float64 | Max []float64
//	Segment            T0 | T1 | From []float64 | To []float64
//	Result             ID | Segment | Appear | Disappear
//	Neighbor           ID | Segment | Dist
//	Waypoint           T | View
//	MotionUpdate       ID | Segment | Delete
//	IndexStats         six ints | AvgLeafFill | AvgIntFill
//	Telemetry          string: the JSON document /debug/telemetry serves
//
// The float count is the number of float64 values the message holds in
// []float64 slices. A decoder allocates them as one slab and hands every
// slice out of it capacity-clipped, so an append to one never reaches the
// next. A count is refused before anything is allocated when the bytes
// left cannot hold that many elements.

// maxFrame bounds a frame's body, so a corrupt or hostile length cannot
// make a peer allocate gigabytes.
const maxFrame = 64 << 20

// keepBuffer is the largest buffer a connection keeps between messages;
// a larger message gets a buffer of its own.
const keepBuffer = 1 << 20

// fields is a set of message fields; its bits are in wire order.
type fields uint32

// Request fields.
const (
	fView fields = 1 << iota
	fT0
	fT1
	fWaypoints
	fLive
	fPoint
	fK
	fUpdates
	fDurability
)

// Response fields.
const (
	fResults fields = 1 << (16 + iota)
	fNeighbors
	fStats
	fTelemetry
)

// wireOps gives each op its code, which is its index, and the fields of
// its request and of its answer. Code 0 carries an op this table lacks by
// name, with no fields, so the server can name it when it refuses it.
var wireOps = [...]struct {
	op        Op
	req, resp fields
}{
	{},
	{OpSnapshot, fView | fT0 | fT1, fResults},
	{OpApplyUpdates, fUpdates | fDurability, 0},
	{OpKNN, fT0 | fPoint | fK, fNeighbors},
	{OpPDQStart, fWaypoints | fLive, 0},
	{OpPDQFetch, fT0 | fT1, fResults},
	{OpNPDQ, fView | fT0 | fT1, fResults},
	{OpNPDQReset, 0, 0},
	{OpStats, 0, fStats},
	{OpTelemetry, 0, fTelemetry},
}

var opCodes = func() map[Op]byte {
	m := make(map[Op]byte, len(wireOps))
	for code, w := range wireOps[1:] {
		m[w.op] = byte(code + 1)
	}
	return m
}()

// The smallest encodings of the slice elements, which bound what a count
// may claim.
const (
	minSegment  = 8 + 8 + 1 + 1
	minResult   = 8 + minSegment + 8 + 8
	minNeighbor = 8 + minSegment + 8
	minWaypoint = 8 + 1 + 1
	minUpdate   = 8 + minSegment + 1
)

// codec walks a message's fields in wire order: it appends them to b
// when encoding and reads them out of b when decoding. Each kind of
// message has one walk (request, response) serving both directions, so
// the two cannot disagree.
//
// Decoding advances offsets (at, used) rather than re-slicing b and slab:
// a value read then writes no pointer, so it costs no GC write barrier.
type codec struct {
	decoding bool
	b        []byte // encoding: the frame so far; decoding: the body
	at       int    // decoding: bytes of b read
	floatsAt int    // encoding: where the float count goes, -1 for none
	nfloats  int    // encoding: float64 values written in slices so far
	// slab holds a decoded message's floats, handed out in order; used
	// of them are.
	slab []float64
	used int
	// err is the first failure. A decoding one sticks: it empties what is
	// left, so every later read fails at once and allocates nothing.
	err error
}

// errMalformed is wrapped by every decoding failure.
var errMalformed = errors.New("netq: malformed message")

// encoder starts a frame at the end of b.
func encoder(b []byte) codec { return codec{b: append(b, 0, 0, 0, 0), floatsAt: -1} }

// frame finishes the frame started at start: its length and float count.
func (c *codec) frame(start int) ([]byte, error) {
	body := len(c.b) - start - 4
	if c.err == nil && body > maxFrame {
		c.err = fmt.Errorf("netq: message of %d bytes exceeds the %d-byte frame limit", body, maxFrame)
	}
	if c.err != nil {
		return c.b[:start], c.err
	}
	binary.LittleEndian.PutUint32(c.b[start:], uint32(body))
	if c.floatsAt >= 0 {
		binary.LittleEndian.PutUint32(c.b[c.floatsAt:], uint32(c.nfloats))
	}
	return c.b, nil
}

// finish ends a decoding walk, refusing bytes or floats left over.
func (c *codec) finish() error {
	switch {
	case c.err != nil:
	case c.left() > 0:
		c.fail("%d trailing bytes", c.left())
	case len(c.slab) > c.used:
		c.fail("%d floats announced but not used", len(c.slab)-c.used)
	}
	return c.err
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", errMalformed, fmt.Sprintf(format, args...))
	}
	c.b, c.at, c.slab, c.used = nil, 0, nil, 0
}

// left is how many bytes of the body are still to read.
func (c *codec) left() int { return len(c.b) - c.at }

// errTruncated is the failure of a read past the end of a body.
var errTruncated = fmt.Errorf("%w: truncated", errMalformed)

func (c *codec) take(n int) []byte {
	if c.left() < n {
		if c.err == nil {
			c.err = errTruncated
		}
		c.b, c.at, c.slab, c.used = nil, 0, nil, 0
		return nil
	}
	p := c.b[c.at : c.at+n]
	c.at += n
	return p
}

func (c *codec) u8(p *byte) {
	if !c.decoding {
		c.b = append(c.b, *p)
	} else if q := c.take(1); q != nil {
		*p = q[0]
	}
}

// put8 and putUvarint append in place: `c.b = append(c.b, …)` stores only
// the length unless the buffer grows, so an encoded value, like a decoded
// one, costs no GC write barrier.
func (c *codec) put8(v uint64) {
	c.b = append(c.b, 0, 0, 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint64(c.b[len(c.b)-8:], v)
}

func (c *codec) putUvarint(v uint64) {
	if v < 0x80 { // a count or a short string's length: one byte
		c.b = append(c.b, byte(v))
		return
	}
	var tmp [binary.MaxVarintLen64]byte
	c.b = append(c.b, tmp[:binary.PutUvarint(tmp[:], v)]...)
}

func (c *codec) u64(p *uint64) {
	if !c.decoding {
		c.put8(*p)
	} else if q := c.take(8); q != nil {
		*p = binary.LittleEndian.Uint64(q)
	}
}

func (c *codec) f64(p *float64) {
	if !c.decoding {
		c.put8(math.Float64bits(*p))
	} else if q := c.take(8); q != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(q))
	}
}

func (c *codec) bool(p *bool) {
	var v byte
	if *p {
		v = 1
	}
	c.u8(&v)
	if v > 1 {
		c.fail("bool out of range")
	}
	*p = v == 1
}

func (c *codec) int(p *int) {
	if !c.decoding {
		var tmp [binary.MaxVarintLen64]byte
		c.b = append(c.b, tmp[:binary.PutVarint(tmp[:], int64(*p))]...)
		return
	}
	v, n := binary.Varint(c.b[c.at:])
	if n <= 0 {
		c.fail("bad varint")
		return
	}
	c.at += n
	*p = int(v)
}

func (c *codec) uvarint(p *uint64) {
	if !c.decoding {
		c.putUvarint(*p)
		return
	}
	v, n := binary.Uvarint(c.b[c.at:])
	if n <= 0 {
		c.fail("bad uvarint")
		return
	}
	c.at += n
	*p = v
}

// count carries a slice's length, -1 for nil. A decoded length that the
// bytes left cannot hold at size bytes an element is refused before
// anything is allocated for it.
func (c *codec) count(n, size int) int {
	v := uint64(n + 1)
	c.uvarint(&v)
	if c.decoding && v > 0 && v-1 > uint64(c.left()/size) {
		c.fail("count %d in %d bytes", v-1, c.left())
		return -1
	}
	return int(v) - 1
}

// bytes carries a length-prefixed byte string; a decoded one is a view of
// the body.
func (c *codec) bytes(p *[]byte) {
	n := uint64(len(*p))
	c.uvarint(&n)
	switch {
	case !c.decoding:
		c.b = append(c.b, *p...)
	case n > uint64(c.left()):
		c.fail("%d-byte string in %d bytes", n, c.left())
	default:
		*p = c.take(int(n))
	}
}

func (c *codec) str(p *string) {
	if !c.decoding {
		c.putUvarint(uint64(len(*p)))
		c.b = append(c.b, *p...)
		return
	}
	var b []byte
	c.bytes(&b)
	*p = string(b)
}

// floatCount carries the number of floats the message holds in slices: a
// placeholder that frame fills in when encoding, the slab's size when
// decoding.
func (c *codec) floatCount() {
	if !c.decoding {
		c.floatsAt = len(c.b)
		c.b = append(c.b, 0, 0, 0, 0)
		return
	}
	var n uint32
	if q := c.take(4); q != nil {
		n = binary.LittleEndian.Uint32(q)
	}
	if uint64(n) > uint64(c.left()/8) {
		c.fail("%d floats in %d bytes", n, c.left())
	} else if n > 0 {
		c.slab = make([]float64, n)
	}
}

// floats carries a []float64; a decoded one is cut from the slab,
// capacity-clipped, so an append to it never reaches the next one.
func (c *codec) floats(p *[]float64) {
	n := -1
	if *p != nil {
		n = len(*p)
	}
	n = c.count(n, 8)
	if !c.decoding {
		c.nfloats += len(*p)
		for i := range *p {
			c.f64(&(*p)[i])
		}
		return
	}
	switch {
	case n < 0:
	case n == 0:
		*p = []float64{} // empty, not nil; the slab may be nil
	case n > len(c.slab)-c.used:
		c.fail("more floats than announced")
	default:
		s := c.slab[c.used : c.used+n : c.used+n]
		c.used += n
		for i := range s {
			c.f64(&s[i])
		}
		*p = s
	}
}

// sized carries the length of a slice of message elements, making the
// slice when decoding; the caller then walks its elements.
func sized[T any](c *codec, s *[]T, size int) {
	n := -1
	if *s != nil {
		n = len(*s)
	}
	if n = c.count(n, size); c.decoding && n >= 0 {
		*s = make([]T, n)
	}
}

// ids carries the trace and span ids as their raw bytes. An id that is
// not in hex form travels as zeros, which reads back as no id.
func (c *codec) ids(trace, span *string) {
	if !c.decoding {
		tid, _ := obs.ParseTraceID(*trace)
		sid, _ := obs.ParseSpanID(*span)
		c.b = append(c.b, tid[:]...)
		c.b = append(c.b, sid[:]...)
	} else if p := c.take(len(obs.TraceID{}) + len(obs.SpanID{})); p != nil {
		*trace, *span = hexIDs(obs.TraceID(p[:len(obs.TraceID{})]), obs.SpanID(p[len(obs.TraceID{}):]))
	}
}

// hexIDs renders a trace and a span id in the hex form Request carries,
// both in one allocation; a zero id is "".
func hexIDs(tid obs.TraceID, sid obs.SpanID) (trace, span string) {
	var raw [len(tid) + len(sid)]byte
	copy(raw[copy(raw[:], tid[:]):], sid[:])
	both := hex.EncodeToString(raw[:])
	trace, span = both[:2*len(tid)], both[2*len(tid):]
	if tid.IsZero() {
		trace = ""
	}
	if sid.IsZero() {
		span = ""
	}
	return trace, span
}

func (c *codec) rect(r *dynq.Rect) {
	c.floats(&r.Min)
	c.floats(&r.Max)
}

func (c *codec) segment(s *dynq.Segment) {
	c.f64(&s.T0)
	c.f64(&s.T1)
	c.floats(&s.From)
	c.floats(&s.To)
}

// telemetry carries the telemetry op's answer as the JSON document
// /debug/telemetry serves.
func (c *codec) telemetry(p **obs.Telemetry) {
	var doc []byte
	if !c.decoding {
		var err error
		if doc, err = json.Marshal(*p); err != nil {
			c.err = fmt.Errorf("netq: encoding telemetry: %w", err)
			return
		}
	}
	c.bytes(&doc)
	if c.decoding && c.err == nil {
		var tel *obs.Telemetry
		if err := json.Unmarshal(doc, &tel); err != nil {
			c.fail("telemetry: %v", err)
		}
		*p = tel
	}
}

// request walks a request body.
func (c *codec) request(req *Request) {
	code := opCodes[req.Op]
	c.u8(&code)
	switch {
	case code == 0:
		c.str((*string)(&req.Op))
		if _, known := opCodes[req.Op]; known {
			c.fail("op %q sent by name", req.Op)
		}
	case int(code) < len(wireOps):
		req.Op = wireOps[code].op
	default:
		c.fail("op code %d", code)
		return
	}
	c.ids(&req.TraceID, &req.SpanID)
	c.floatCount()
	f := wireOps[code].req
	if f&fView != 0 {
		c.rect(&req.View)
	}
	if f&fT0 != 0 {
		c.f64(&req.T0)
	}
	if f&fT1 != 0 {
		c.f64(&req.T1)
	}
	if f&fWaypoints != 0 {
		sized(c, &req.Waypoints, minWaypoint)
		for i := range req.Waypoints {
			w := &req.Waypoints[i]
			c.f64(&w.T)
			c.rect(&w.View)
		}
	}
	if f&fLive != 0 {
		c.bool(&req.Live)
	}
	if f&fPoint != 0 {
		c.floats(&req.Point)
	}
	if f&fK != 0 {
		c.int(&req.K)
	}
	if f&fUpdates != 0 {
		sized(c, &req.Updates, minUpdate)
		for i := range req.Updates {
			u := &req.Updates[i]
			c.u64(&u.ID)
			c.segment(&u.Segment)
			c.bool(&u.Delete)
		}
	}
	if f&fDurability != 0 {
		c.int((*int)(&req.Durability))
	}
}

// response walks the body answering an op.
func (c *codec) response(op Op, resp *Response) {
	var failed bool
	if resp.Err != "" {
		failed = true
	}
	c.bool(&failed)
	if failed {
		c.str(&resp.ErrKind)
		c.str(&resp.Err)
		if resp.Err == "" {
			c.fail("error response without a message")
		}
		return
	}
	c.floatCount()
	f := wireOps[opCodes[op]].resp
	if f&fResults != 0 {
		sized(c, &resp.Results, minResult)
		for i := range resp.Results {
			r := &resp.Results[i]
			c.u64(&r.ID)
			c.segment(&r.Segment)
			c.f64(&r.Appear)
			c.f64(&r.Disappear)
		}
	}
	if f&fNeighbors != 0 {
		sized(c, &resp.Neighbors, minNeighbor)
		for i := range resp.Neighbors {
			n := &resp.Neighbors[i]
			c.u64(&n.ID)
			c.segment(&n.Segment)
			c.f64(&n.Dist)
		}
	}
	if f&fStats != 0 {
		st := &resp.Stats
		for _, p := range []*int{&st.Height, &st.Segments, &st.LeafNodes, &st.InternalNodes, &st.LeafFanout, &st.IntFanout} {
			c.int(p)
		}
		c.f64(&st.AvgLeafFill)
		c.f64(&st.AvgIntFill)
	}
	if f&fTelemetry != 0 {
		c.telemetry(&resp.Telemetry)
	}
}

// appendRequest appends req's frame to b.
func appendRequest(b []byte, req Request) ([]byte, error) {
	c := encoder(b)
	c.request(&req)
	return c.frame(len(b))
}

// decodeRequest parses a request body.
func decodeRequest(body []byte) (Request, error) {
	c := codec{decoding: true, b: body}
	var req Request
	c.request(&req)
	return req, c.finish()
}

// appendResponse appends the frame answering an op with resp to b.
func appendResponse(b []byte, op Op, resp Response) ([]byte, error) {
	c := encoder(b)
	c.response(op, &resp)
	return c.frame(len(b))
}

// decodeResponse parses the body answering an op.
func decodeResponse(op Op, body []byte) (Response, error) {
	c := codec{decoding: true, b: body}
	var resp Response
	c.response(op, &resp)
	return resp, c.finish()
}

// link is one connection with its framing: a buffered reader, and the
// buffers a message is encoded into and read into, so that sending one is
// one write. A decoded message copies what it keeps, so the buffers are
// reused.
type link struct {
	conn net.Conn
	r    *bufio.Reader
	out  []byte
	in   []byte
}

func newLink(conn net.Conn) *link { return &link{conn: conn, r: bufio.NewReader(conn)} }

// write sends a frame encoded onto the link's buffer (l.out), keeping the
// buffer for the next one unless it grew past keepBuffer.
func (l *link) write(frame []byte) error {
	if cap(frame) <= keepBuffer {
		l.out = frame[:0]
	}
	_, err := l.conn.Write(frame)
	return err
}

// recv reads one frame and returns its body, valid until the next recv.
func (l *link) recv() ([]byte, error) {
	hdr, err := l.r.Peek(4)
	if err != nil {
		if err == io.EOF && l.r.Buffered() > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", errMalformed, n, maxFrame)
	}
	l.r.Discard(4)
	body := l.in
	switch {
	case int(n) > keepBuffer:
		body = make([]byte, n)
	case int(n) > cap(body):
		l.in = make([]byte, n)
		body = l.in
	}
	body = body[:n]
	if _, err := io.ReadFull(l.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return body, nil
}

// The handshake, before any frame: the client sends a hello, and the
// server answers with a hello of its own followed by one frame, the
// refusal — empty when it accepts the connection.
//
//	hello  0x80 | "dynq/netq" | u32 version
//	ack    0x80 | "dynq/netq" | u32 version | u32 length | refusal
//
// No gob stream starts with 0x80: as a gob count byte it announces a
// 128-byte integer. So a server tells a hello from the gob a pre-v3 client
// opens with by its first byte, and a pre-v3 server fails on a hello at
// once instead of waiting for a message that never comes.
const (
	helloLead = 0x80
	helloLen  = 1 + len(protocolMagic) + 4
)

func appendHello(b []byte, version int) []byte {
	b = append(b, helloLead)
	b = append(b, protocolMagic...)
	return binary.LittleEndian.AppendUint32(b, uint32(version))
}

func appendAck(b []byte, version int, refusal string) []byte {
	b = binary.LittleEndian.AppendUint32(appendHello(b, version), uint32(len(refusal)))
	return append(b, refusal...)
}

// readHello reads a hello.
func readHello(r *bufio.Reader) (magic string, version int, err error) {
	p, err := r.Peek(helloLen)
	if err != nil {
		return "", 0, err
	}
	magic = string(p[1 : 1+len(protocolMagic)])
	version = int(binary.LittleEndian.Uint32(p[1+len(protocolMagic):]))
	r.Discard(helloLen)
	return magic, version, nil
}
