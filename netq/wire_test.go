package netq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dynq"
	"dynq/internal/obs"
)

// gen draws message values that stress the codec: every dimensionality
// from 1 to 3, nil and empty slices, signed zeros, infinities, NaN
// payloads and the extreme ids.
type gen struct {
	r    *rand.Rand
	dims int
}

func (g gen) float() float64 {
	switch g.r.Intn(10) {
	case 0:
		return math.Copysign(0, -1)
	case 1:
		return 0
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return math.Float64frombits(0x7ff8_0000_dead_beef) // a NaN with a payload
	case 5:
		return math.MaxFloat64
	case 6:
		return math.SmallestNonzeroFloat64
	}
	return g.r.NormFloat64() * 1e3
}

func (g gen) id() uint64 {
	switch g.r.Intn(4) {
	case 0:
		return 0
	case 1:
		return math.MaxUint64
	}
	return g.r.Uint64()
}

// n is a slice length, -1 meaning nil.
func (g gen) n(most int) int { return g.r.Intn(most+2) - 1 }

func (g gen) floats() []float64 {
	switch g.r.Intn(5) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, g.dims)
	for i := range v {
		v[i] = g.float()
	}
	return v
}

func (g gen) rect() dynq.Rect { return dynq.Rect{Min: g.floats(), Max: g.floats()} }

func (g gen) segment() dynq.Segment {
	return dynq.Segment{T0: g.float(), T1: g.float(), From: g.floats(), To: g.floats()}
}

func (g gen) results(n int) []dynq.Result {
	if n < 0 {
		return nil
	}
	rs := make([]dynq.Result, n)
	for i := range rs {
		rs[i] = dynq.Result{ID: g.id(), Segment: g.segment(), Appear: g.float(), Disappear: g.float()}
	}
	return rs
}

func (g gen) str() string {
	return []string{"", "x", "netq: a message with ünïcode", strings.Repeat("long ", 100)}[g.r.Intn(4)]
}

// request fills exactly the fields op carries.
func (g gen) request(code int) Request {
	w := wireOps[code]
	req := Request{Op: w.op}
	if code == 0 {
		req.Op = Op("no-such-op-" + g.str())
	}
	if g.r.Intn(3) > 0 {
		tc := obs.NewTraceContext()
		req.TraceID = tc.TraceID.String()
		if g.r.Intn(3) > 0 {
			req.SpanID = tc.SpanID.String()
		}
	}
	f := w.req
	if f&fView != 0 {
		req.View = g.rect()
	}
	if f&fT0 != 0 {
		req.T0 = g.float()
	}
	if f&fT1 != 0 {
		req.T1 = g.float()
	}
	if f&fWaypoints != 0 {
		if n := g.n(4); n >= 0 {
			req.Waypoints = make([]dynq.Waypoint, n)
			for i := range req.Waypoints {
				req.Waypoints[i] = dynq.Waypoint{T: g.float(), View: g.rect()}
			}
		}
	}
	if f&fLive != 0 {
		req.Live = g.r.Intn(2) == 1
	}
	if f&fPoint != 0 {
		req.Point = g.floats()
	}
	if f&fK != 0 {
		req.K = []int{0, -1, math.MaxInt, math.MinInt, 10}[g.r.Intn(5)]
	}
	if f&fUpdates != 0 {
		if n := g.n(5); n >= 0 {
			req.Updates = make([]dynq.MotionUpdate, n)
			for i := range req.Updates {
				req.Updates[i] = dynq.MotionUpdate{ID: g.id(), Segment: g.segment(), Delete: g.r.Intn(2) == 1}
			}
		}
	}
	if f&fDurability != 0 {
		req.Durability = dynq.Durability(g.r.Intn(4))
	}
	return req
}

// response fills exactly the fields op's answer carries, or an error.
func (g gen) response(code int, results int) Response {
	if g.r.Intn(4) == 0 {
		return Response{Err: "netq: " + g.str(), ErrKind: []string{"", ErrKindNoWAL, ErrKindDiskFull, ErrKindNonFinite}[g.r.Intn(4)]}
	}
	var resp Response
	f := wireOps[code].resp
	if f&fResults != 0 {
		resp.Results = g.results(results)
	}
	if f&fNeighbors != 0 {
		if n := g.n(4); n >= 0 {
			resp.Neighbors = make([]dynq.Neighbor, n)
			for i := range resp.Neighbors {
				resp.Neighbors[i] = dynq.Neighbor{ID: g.id(), Segment: g.segment(), Dist: g.float()}
			}
		}
	}
	if f&fStats != 0 {
		resp.Stats = dynq.IndexStats{Height: 3, Segments: math.MaxInt, LeafNodes: -1, InternalNodes: 7,
			LeafFanout: 60, IntFanout: 40, AvgLeafFill: g.float(), AvgIntFill: g.float()}
	}
	if f&fTelemetry != 0 && g.r.Intn(3) > 0 {
		resp.Telemetry = &obs.Telemetry{
			Time: time.Unix(1700000000, 123456789).UTC(), UptimeSeconds: 12.5, GoVersion: "go1.x",
			ActiveConns: 2, Ops: []obs.OpTelemetry{{Op: "snapshot", Count: 3, P99: 0.001}},
			Runtime: &obs.RuntimeSample{Goroutines: 9, Extra: map[string]float64{"buffer_frames": 4}},
		}
	}
	return resp
}

// sameBits reports whether a and b are equal with floats compared by
// their bits (so NaN equals the same NaN and -0 differs from +0) and nil
// slices told from empty ones.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Pointer:
		// Telemetry: its payload is a JSON document, compared as one.
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		ja, _ := json.Marshal(a.Interface())
		jb, _ := json.Marshal(b.Interface())
		return bytes.Equal(ja, jb)
	}
	return a.Interface() == b.Interface()
}

// body checks a frame's length prefix and returns its body.
func body(t *testing.T, frame []byte) []byte {
	t.Helper()
	if n := binary.LittleEndian.Uint32(frame); int(n) != len(frame)-4 {
		t.Fatalf("frame length %d, body %d bytes", n, len(frame)-4)
	}
	return frame[4:]
}

// Every op's request and answer decode to what was encoded, bit for bit.
func TestCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for code := range wireOps {
		for dims := 1; dims <= 3; dims++ {
			g := gen{r: r, dims: dims}
			for i := 0; i < 40; i++ {
				req := g.request(code)
				frame, err := appendRequest(nil, req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := decodeRequest(body(t, frame))
				if err != nil {
					t.Fatalf("%s request: %v", req.Op, err)
				}
				if !sameBits(reflect.ValueOf(got), reflect.ValueOf(req)) {
					t.Fatalf("%s request came back different:\n got %+v\nwant %+v", req.Op, got, req)
				}

				resp := g.response(code, g.n(6))
				frame, err = appendResponse(nil, req.Op, resp)
				if err != nil {
					t.Fatal(err)
				}
				back, err := decodeResponse(req.Op, body(t, frame))
				if err != nil {
					t.Fatalf("%s response: %v", req.Op, err)
				}
				if !sameBits(reflect.ValueOf(back), reflect.ValueOf(resp)) {
					t.Fatalf("%s response came back different:\n got %+v\nwant %+v", req.Op, back, resp)
				}
			}
		}
	}
	// Answers of no and of 10 000 results.
	g := gen{r: r, dims: 2}
	for _, n := range []int{0, 10000} {
		resp := Response{Results: g.results(n)}
		frame, err := appendResponse(nil, OpSnapshot, resp)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeResponse(OpSnapshot, body(t, frame))
		if err != nil || !sameBits(reflect.ValueOf(back), reflect.ValueOf(resp)) {
			t.Fatalf("%d results: err %v, or the answer came back different", n, err)
		}
	}
}

// Decoded coordinates share one slab, but no slice reaches into another:
// an append to one reallocates instead of overwriting the next.
func TestDecodedSlicesAreClipped(t *testing.T) {
	g := gen{r: rand.New(rand.NewSource(2)), dims: 2}
	rs := g.results(50)
	for i := range rs {
		rs[i].Segment.From, rs[i].Segment.To = []float64{1, 2}, []float64{3, 4}
	}
	frame, _ := appendResponse(nil, OpSnapshot, Response{Results: rs})
	back, err := decodeResponse(OpSnapshot, body(t, frame))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range back.Results {
		if cap(r.Segment.From) != 2 || cap(r.Segment.To) != 2 {
			t.Fatalf("decoded points have capacity %d and %d, want 2", cap(r.Segment.From), cap(r.Segment.To))
		}
	}
}

// craft builds a body by hand: the parts are appended as given.
func craft(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func uvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func u32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// A count claiming more than the bytes left can hold is refused before
// anything is allocated for it.
func TestCountRefusedBeforeAllocation(t *testing.T) {
	ids := make([]byte, 24)
	bodies := map[string]struct {
		op   Op
		body []byte
		req  bool
	}{
		"results":      {OpSnapshot, craft([]byte{0}, u32(0), uvarint(1<<40)), false},
		"float slab":   {OpSnapshot, craft([]byte{0}, u32(math.MaxUint32), uvarint(0)), false},
		"neighbors":    {OpKNN, craft([]byte{0}, u32(0), uvarint(1<<50)), false},
		"telemetry":    {OpTelemetry, craft([]byte{0}, u32(0), uvarint(1<<45)), false},
		"error string": {OpSnapshot, craft([]byte{1}, uvarint(1<<45)), false},
		"updates":      {OpApplyUpdates, craft([]byte{opCodes[OpApplyUpdates]}, ids, u32(0), uvarint(1<<40)), true},
		"waypoints":    {OpPDQStart, craft([]byte{opCodes[OpPDQStart]}, ids, u32(0), uvarint(1<<40)), true},
		"view floats":  {OpSnapshot, craft([]byte{opCodes[OpSnapshot]}, ids, u32(0), uvarint(1<<40)), true},
		"op name":      {"", craft([]byte{0}, uvarint(1<<40)), true},
	}
	for name, c := range bodies {
		decode := func() error {
			if c.req {
				_, err := decodeRequest(c.body)
				return err
			}
			_, err := decodeResponse(c.op, c.body)
			return err
		}
		if err := decode(); err == nil {
			t.Errorf("%s: an inflated count was accepted", name)
			continue
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / 100; perCall > 1024 {
			t.Errorf("%s: refusing an inflated count allocated %d bytes a call", name, perCall)
		}
	}
}

// A frame longer than the limit is refused from its length alone.
func TestOversizedFrameRefused(t *testing.T) {
	l := &link{r: bufio.NewReader(bytes.NewReader(u32(maxFrame + 1)))}
	if _, err := l.recv(); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("recv of an oversized frame = %v", err)
	}
}

// seedFrames are the fuzzer's starting points, each with its name: a
// request and an answer of every op, an error answer, and the inflated and
// truncated shapes. testdata/fuzz/FuzzDecodeFrame holds some of them under
// their names (TestFuzzCorpusIsCurrent).
func seedFrames() (names []string, frames [][]byte) {
	g := gen{r: rand.New(rand.NewSource(3)), dims: 2}
	add := func(name string, frame []byte) {
		names = append(names, name)
		frames = append(frames, frame)
	}
	for code, w := range wireOps {
		name := string(w.op)
		if code == 0 {
			name = "unknown-op"
		}
		frame, _ := appendRequest(nil, g.request(code))
		add("request-"+name, frame)
	}
	for code, w := range wireOps[1:] {
		resp := g.response(code+1, 3)
		for resp.Err != "" { // the op's answer; response-error is the error shape
			resp = g.response(code+1, 3)
		}
		frame, _ := appendResponse(nil, w.op, resp)
		add("response-"+string(w.op), frame)
	}
	errFrame, _ := appendResponse(nil, OpSnapshot, Response{Err: "netq: no", ErrKind: ErrKindNoWAL})
	add("response-error", errFrame)
	add("inflated-count", craft(u32(13), []byte{0}, u32(0), uvarint(1<<40)))
	add("truncated-request", frames[1][:len(frames[1])-3])
	return names, frames
}

// brokenSeeds are the named seeds that no decoder accepts, on purpose.
var brokenSeeds = map[string]bool{"inflated-count": true, "truncated-request": true}

// TestFuzzCorpusIsCurrent holds the named seeds in
// testdata/fuzz/FuzzDecodeFrame to today's codec: each one but the
// deliberately broken ones decodes as the op its name says and re-encodes
// to its own bytes, and the broken ones fail to decode. A renumbering or a
// field change fails here instead of quietly orphaning the corpus;
// regenerate the files from seedFrames.
func TestFuzzCorpusIsCurrent(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzDecodeFrame", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus (err %v)", err)
	}
	for _, file := range files {
		name := filepath.Base(file)
		data := readCorpusFile(t, file)
		l := &link{r: bufio.NewReader(bytes.NewReader(data))}
		body, err := l.recv()
		var again []byte
		switch {
		case err != nil:
		case strings.HasPrefix(name, "request-"):
			var req Request
			if req, err = decodeRequest(body); err == nil {
				want := strings.TrimPrefix(name, "request-")
				if _, known := opCodes[req.Op]; want == "unknown-op" && known || want != "unknown-op" && string(req.Op) != want {
					t.Errorf("%s: decodes as op %q", name, req.Op)
				}
				again, err = appendRequest(nil, req)
			}
		case strings.HasPrefix(name, "response-"):
			op := Op(strings.TrimPrefix(name, "response-"))
			if op == "error" {
				op = OpSnapshot
			} else if _, known := opCodes[op]; !known {
				t.Errorf("%s: no op %q", name, op)
			}
			var resp Response
			if resp, err = decodeResponse(op, body); err == nil {
				if (resp.Err != "") != (name == "response-error") {
					t.Errorf("%s: error %q", name, resp.Err)
				}
				again, err = appendResponse(nil, op, resp)
			}
		default:
			if !brokenSeeds[name] {
				t.Errorf("%s: a seed's name starts with request- or response-", name)
			}
			continue
		}
		switch {
		case brokenSeeds[name]:
			if err == nil {
				t.Errorf("%s: decodes, but it is broken on purpose", name)
			}
		case err != nil:
			t.Errorf("%s: %v", name, err)
		case !bytes.Equal(again, data):
			t.Errorf("%s: re-encodes to other bytes", name)
		}
	}
}

// readCorpusFile reads a one-value "go test fuzz v1" file.
func readCorpusFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, lit, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	lit, ok := strings.CutPrefix(lit, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	data, err := strconv.Unquote(lit)
	if head != "go test fuzz v1" || !ok || !ok2 || err != nil {
		t.Fatalf("%s: not a one-value []byte corpus file (err %v)", path, err)
	}
	return []byte(data)
}

// FuzzDecodeFrame: no input makes either decoder panic; nothing decoded
// claims more elements than its input had bytes; and what decodes
// re-encodes to a message that decodes the same.
func FuzzDecodeFrame(f *testing.F) {
	_, frames := seedFrames()
	for _, s := range frames {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		bodies := [][]byte{data}
		l := &link{r: bufio.NewReader(bytes.NewReader(data))}
		if b, err := l.recv(); err == nil {
			bodies = append(bodies, b)
		}
		for _, b := range bodies {
			if req, err := decodeRequest(b); err == nil {
				if n := len(req.Waypoints) + len(req.Updates) + len(req.Point); n > len(b) {
					t.Fatalf("%d elements from %d bytes", n, len(b))
				}
				frame, err := appendRequest(nil, req)
				if err != nil {
					t.Fatal(err)
				}
				again, err := decodeRequest(frame[4:])
				if err != nil || !sameBits(reflect.ValueOf(again), reflect.ValueOf(req)) {
					t.Fatalf("request re-encoded differently (err %v)", err)
				}
			}
			for code := range wireOps {
				op := wireOps[code].op
				resp, err := decodeResponse(op, b)
				if err != nil {
					continue
				}
				if n := len(resp.Results) + len(resp.Neighbors); n > len(b) {
					t.Fatalf("%d elements from %d bytes", n, len(b))
				}
				frame, err := appendResponse(nil, op, resp)
				if err != nil {
					continue // telemetry JSON that decodes but cannot be re-encoded
				}
				again, err := decodeResponse(op, frame[4:])
				if err != nil || !sameBits(reflect.ValueOf(again), reflect.ValueOf(resp)) {
					t.Fatalf("%s response re-encoded differently (err %v)", op, err)
				}
			}
		}
	})
}
