package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// jsonRequest and jsonResponse are the frame structs as the reflection
// codec declared them before the typed one replaced it: encoding/json
// over these is the oracle every codec test compares against, and the
// stand-in for a peer still running the old codec.
type jsonRequest struct {
	V      int    `json:"v"`
	Op     string `json:"op"`
	K      int    `json:"k,omitempty"`
	Vertex uint32 `json:"vertex,omitempty"`
	Epoch  uint64 `json:"epoch,omitempty"`
	Rid    string `json:"rid,omitempty"`
}

type jsonResponse struct {
	V           int             `json:"v"`
	Shard       int             `json:"shard"`
	Code        string          `json:"code,omitempty"`
	Err         string          `json:"error,omitempty"`
	Epoch       uint64          `json:"epoch,omitempty"`
	Engine      api.Engine      `json:"engine,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	Entries     []api.TopKEntry `json:"entries,omitempty"`
	Owned       bool            `json:"owned,omitempty"`
	Rank        float64         `json:"rank,omitempty"`
	OwnedCount  int             `json:"ownedCount,omitempty"`
	Shards      int             `json:"shards,omitempty"`
	Queries     uint64          `json:"queries,omitempty"`
	SnapshotAge float64         `json:"snapshotAge,omitempty"`
}

func oracleRequest(r request) jsonRequest { return jsonRequest(r) }

func oracleResponse(r response) jsonResponse {
	j := jsonResponse{
		V: r.V, Shard: r.Shard, Code: r.Code, Err: r.Err, Epoch: r.Epoch, Engine: r.Engine, Seed: r.Seed,
		Owned: r.Owned, Rank: r.Rank, OwnedCount: r.OwnedCount, Shards: r.Shards, Queries: r.Queries, SnapshotAge: r.SnapshotAge,
	}
	if r.Entries != nil {
		j.Entries = make([]api.TopKEntry, len(r.Entries))
		for i, e := range r.Entries {
			j.Entries[i] = api.TopKEntry{Vertex: e.Vertex, Score: e.Score}
		}
	}
	return j
}

// checkDecode holds the typed decoder to encoding/json on one payload:
// whatever it accepts, json.Unmarshal accepts with an equal struct. It
// reports which of the two frame types the typed decoder accepted.
func checkDecode(t *testing.T, payload []byte) (reqOK, respOK bool) {
	t.Helper()
	var req request
	if err := decodeRequest(payload, &req); err == nil {
		reqOK = true
		var want jsonRequest
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("request %q: typed decoder accepted, encoding/json refused: %v", payload, err)
		}
		if oracleRequest(req) != want {
			t.Fatalf("request %q:\n typed %+v\n  json %+v", payload, req, want)
		}
	}
	var resp response
	if err := decodeResponse(payload, &resp); err == nil {
		respOK = true
		var want jsonResponse
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("response %q: typed decoder accepted, encoding/json refused: %v", payload, err)
		}
		if !reflect.DeepEqual(oracleResponse(resp), want) {
			t.Fatalf("response %q:\n typed %+v\n  json %+v", payload, resp, want)
		}
	}
	return reqOK, respOK
}

// checkEncode holds the typed encoder to encoding/json on one pair of
// structs: equal bytes, or both refuse (a NaN or infinite number); and
// the typed decoder reads back what the encoder wrote.
func checkEncode(t *testing.T, req request, resp response) {
	t.Helper()
	want, err := json.Marshal(oracleRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	got := appendRequest(nil, &req)
	if !bytes.Equal(got, want) {
		t.Fatalf("request %+v:\n typed %s\n  json %s", req, got, want)
	}
	if ok, _ := checkDecode(t, got); !ok {
		t.Fatalf("typed decoder refused the encoder's own request %s", got)
	}

	want, wantErr := json.Marshal(oracleResponse(resp))
	got, err = appendResponse(nil, &resp)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("response %+v: typed error %v, json error %v", resp, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response %+v:\n typed %s\n  json %s", resp, got, want)
	}
	if _, ok := checkDecode(t, got); !ok {
		t.Fatalf("typed decoder refused the encoder's own response %s", got)
	}
}

// checkStream reads data as a raw frame stream: whatever comes back,
// no panic, nothing read past the stream or past maxFrame, and no
// buffer kept past maxRetainedBuf.
func checkStream(t *testing.T, data []byte) {
	t.Helper()
	var frame frameBuf
	var req request
	n, err := frame.readRequest(bytes.NewReader(data), &req)
	if n > len(data) || n > 4+maxFrame {
		t.Fatalf("metered %d bytes off a %d-byte stream", n, len(data))
	}
	if err == nil && n != 4+int(binary.BigEndian.Uint32(data)) {
		t.Fatalf("accepted frame metered %d bytes, prefix says %d", n, binary.BigEndian.Uint32(data))
	}
	var resp response
	frame.readResponse(bytes.NewReader(data), &resp) //nolint:errcheck // only must not panic
	if cap(frame.buf) > maxRetainedBuf {
		t.Fatalf("retained a %d-byte buffer", cap(frame.buf))
	}
}

// frameSeeds are the deterministic cases behind FuzzFrame (go test
// replays them): numbers on both sides of encoding/json's format
// switches, strings needing every kind of escape, zero values that
// omitempty drops.
var frameSeeds = []struct {
	payload string
	text    string
	num     float64
	u       uint64
}{
	{`{"v":1,"op":"topk","k":10,"rid":"5f3a"}`, "", 0, 0},
	{`{"v":1,"shard":2,"epoch":3,"engine":"frogwild","seed":7,"entries":[{"vertex":4,"score":0.25},{"vertex":9,"score":1e-7}]}`, "frogwild", 1e-6, 1},
	{`{"v":1,"shard":0,"owned":true,"rank":9.99e-7}`, "a\"b\\c", 9.99e-7, 2},
	{`{"v":1,"shard":0,"code":"bad_request","error":"unknown op \"x\""}`, "<script>&amp;</script>", 1e21, 3},
	{`{"v":1,"shard":1,"ownedCount":12500,"queries":42,"snapshotAge":1.5}`, "tab\tnl\ncr\rbs\bff\fnul\x00esc\x1b", 9.99e20, 1 << 40},
	{`{"V":1,"OP":"rank","VERTEX":7,"future":{"a":[1,2,{"b":null}],"c":"d"}}`, "sep\u2028\u2029 é 日本 🐸", 1e-10, math.MaxUint64},
	{`{"v":1,"op":"status","rid":"\u00e9\ud83d\udc38\ud83d x"}`, "bad\xff\xfeutf8\xc0", math.MaxFloat64, math.MaxUint32},
	{`{"v":1,"shard":0,"entries":[]}`, "\x7f", math.SmallestNonzeroFloat64, 12345},
	{`{"v":1,"shard":0,"entries":[{"score":-0,"vertex":4294967295,"extra":[[]]}]}`, "k", math.Copysign(0, -1), 99},
	{"\n {\t\"v\" : 1 ,\r\"op\" : \"topk\" } \n", "", 123456789.125, 1},
	{`{"v":1,"op":"topk","k":1,"k":2}`, "", math.Inf(1), 1},
	{`{"v":1,"shard":0,"rank":null}`, "", math.NaN(), 1},
	{`{"v":1.0,"op":"topk"}`, "", -1e21, 1},
	{`{"v":1,"op":"topk"}trailing`, "", -9.99e-7, 1},
	{`{"v":1,"op":"to`, "", 5e-324, 1},
	{"\x00\x00\x00\x13{\"v\":1,\"op\":\"topk\"}", "", 1, 1},
	{"\xff\xff\xff\xff{}", "", 1, 1},
	{"\x04\x00\x00\x01{}", "", 1, 1},
	{"\x00\x00\x00\x02{", "", 1, 1},
	{`{"v":1,"shard":0,"x":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`, "", 1, 1},
}

// FuzzFrame is the differential fuzz of the frame codec against
// encoding/json: payload drives the decoder (as a bare payload and as a
// raw frame stream), the other arguments fill structs for the encoder.
func FuzzFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s.payload), s.text, s.num, s.u)
	}
	f.Fuzz(func(t *testing.T, payload []byte, text string, num float64, u uint64) {
		checkDecode(t, payload)
		checkStream(t, payload)
		req := request{V: int(u % 3), Op: text, K: int(int32(u >> 8)), Vertex: uint32(u >> 16), Epoch: u, Rid: text}
		resp := response{
			V: int(u % 3), Shard: int(u % 7), Code: text, Err: text, Epoch: u >> 1, Engine: api.Engine(text), Seed: u,
			Owned: u&1 == 1, Rank: num, OwnedCount: int(u >> 32), Queries: u >> 3, SnapshotAge: -num,
		}
		if u%5 != 0 {
			resp.Entries = []topk.Entry{{Vertex: uint32(u), Score: num}, {Vertex: uint32(u >> 7), Score: num * 1e-7}, {Score: num * 1e21}}
		}
		checkEncode(t, req, resp)
		// The zero-heavy variants exercise omitempty on every member.
		checkEncode(t, request{Op: text}, response{Code: text})
		checkEncode(t, request{}, response{Entries: []topk.Entry{}})
	})
}

// TestDecodeFrames pins what the typed decoder accepts and refuses;
// every accepted payload is also held to encoding/json by checkDecode.
func TestDecodeFrames(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		req     bool // the request decoder accepts
		resp    bool // the response decoder accepts
	}{
		{"empty object", `{}`, true, true},
		{"unknown members skipped", `{"v":1,"op":"topk","deadline":12.5,"tags":["a",{"b":[true,false,null]}],"k":5}`, true, true},
		{"members of the other frame type are unknown", `{"v":1,"shard":3,"entries":[{"vertex":1,"score":2}]}`, true, true},
		{"names fold like encoding/json", `{"V":1,"Op":"rank","\u212a":7,"VERTEX":9}`, true, true},
		{"escaped name", `{"\u0076":1,"op":"status"}`, true, true},
		{"whitespace", " {\n\"v\":1 , \"op\":\"topk\"\t}\r\n", true, true},
		{"negative zero int", `{"v":-0,"op":"x"}`, true, true},
		{"duplicate member", `{"v":1,"v":1}`, false, false},
		{"duplicate under folding", `{"k":1,"K":2}`, false, true},
		{"null for a known member", `{"v":null}`, false, false},
		{"null for an unknown member", `{"w":null}`, true, true},
		{"fraction for an int", `{"v":1.5}`, false, false},
		{"exponent for an int", `{"k":1e2}`, false, true},
		{"negative unsigned", `{"epoch":-1}`, false, false},
		{"vertex past uint32", `{"vertex":4294967296}`, false, true},
		{"string for a number", `{"v":"1"}`, false, false},
		{"number for a string", `{"op":1}`, false, true},
		{"leading zero", `{"v":01}`, false, false},
		{"bare minus", `{"v":-}`, false, false},
		{"plus sign", `{"v":+1}`, false, false},
		{"float out of range", `{"rank":1e999}`, true, false},
		{"entry not an object", `{"entries":[1]}`, true, false},
		{"entry null", `{"entries":[null]}`, true, false},
		{"entries trailing comma", `{"entries":[{"vertex":1,"score":1},]}`, false, false},
		{"object trailing comma", `{"v":1,}`, false, false},
		{"missing colon", `{"v" 1}`, false, false},
		{"missing comma", `{"v":1 "op":"x"}`, false, false},
		{"control byte in string", "{\"op\":\"a\nb\"}", false, false},
		{"bad escape", `{"op":"\x"}`, false, false},
		{"single-quote escape", `{"op":"\'"}`, false, false},
		{"short unicode escape", `{"op":"\u12"}`, false, false},
		{"unterminated string", `{"op":"abc`, false, false},
		{"unterminated object", `{"v":1`, false, false},
		{"trailing bytes", `{"v":1}x`, false, false},
		{"two values", `{"v":1}{"v":1}`, false, false},
		{"top-level array", `[]`, false, false},
		{"top-level null", `null`, false, false},
		{"empty payload", ``, false, false},
		{"garbage", "\x00\xff\x13garbage", false, false},
		{"bad syntax inside an unknown member", `{"w":[1,2,}`, false, false},
		{"bad literal inside an unknown member", `{"w":tru}`, false, false},
		{"unknown member nested past the limit", `{"w":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `}`, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, resp := checkDecode(t, []byte(tc.payload))
			if req != tc.req || resp != tc.resp {
				t.Fatalf("accepted as request %v (want %v), as response %v (want %v)", req, tc.req, resp, tc.resp)
			}
		})
	}

	var req request
	if err := decodeRequest([]byte(`{"future":[1,{"a":"b"}],"v":1,"op":"topk","k":5,"epoch":9,"rid":"a\"b"}`), &req); err != nil {
		t.Fatal(err)
	}
	if want := (request{V: 1, Op: opTopK, K: 5, Epoch: 9, Rid: `a"b`}); req != want {
		t.Fatalf("decoded %+v, want %+v", req, want)
	}
}

// TestFrameBounds pins the framing limits: a truncated frame and an
// oversized prefix are errors, the meters count what was read, and a
// buffer grown past maxRetainedBuf is not kept.
func TestFrameBounds(t *testing.T) {
	var frame frameBuf
	var sink bytes.Buffer
	big := response{V: api.Version, Entries: make([]topk.Entry, maxRetainedBuf/16)}
	for i := range big.Entries {
		big.Entries[i] = topk.Entry{Vertex: uint32(i), Score: 1 / float64(i+1)}
	}
	n, err := frame.writeResponse(&sink, &big)
	if err != nil || n != sink.Len() || n <= maxRetainedBuf {
		t.Fatalf("wrote %d bytes (buffer holds %d), err %v", n, sink.Len(), err)
	}
	if frame.buf != nil {
		t.Fatalf("kept a %d-byte buffer after a %d-byte frame", cap(frame.buf), n)
	}
	wire := append([]byte(nil), sink.Bytes()...)

	var back response
	if n, err := frame.readResponse(bytes.NewReader(wire), &back); err != nil || n != len(wire) {
		t.Fatalf("read %d of %d bytes: %v", n, len(wire), err)
	}
	if !reflect.DeepEqual(back, big) {
		t.Fatal("large response did not round-trip")
	}
	if frame.buf != nil {
		t.Fatalf("kept a %d-byte buffer after reading a large frame", cap(frame.buf))
	}

	small := request{V: api.Version, Op: opStatus}
	sink.Reset()
	if _, err := frame.writeRequest(&sink, &small); err != nil {
		t.Fatal(err)
	}
	kept := &frame.buf[0]
	sink.Reset()
	if _, err := frame.writeRequest(&sink, &small); err != nil {
		t.Fatal(err)
	}
	if &frame.buf[0] != kept {
		t.Fatal("small frames do not reuse the connection's buffer")
	}

	for cut := 0; cut < len(wire); cut += 1 + len(wire)/50 {
		n, err := frame.readResponse(bytes.NewReader(wire[:cut]), &back)
		if err == nil {
			t.Fatalf("frame truncated to %d bytes was accepted", cut)
		}
		if cut == 0 && err != io.EOF {
			t.Fatalf("empty stream: %v, want io.EOF (a clean close between frames)", err)
		}
		if n > cut {
			t.Fatalf("metered %d bytes of a %d-byte stream", n, cut)
		}
	}

	// A prefix announcing maxFrame with a dozen bytes behind it costs a
	// buffer step, not maxFrame.
	hostile := append(binary.BigEndian.AppendUint32(nil, maxFrame), `{"v":1,"sha`...)
	frame = frameBuf{}
	if n, err := frame.readResponse(bytes.NewReader(hostile), &back); err == nil || n != len(hostile) || cap(frame.buf) > 2*maxRetainedBuf {
		t.Fatalf("hostile prefix: metered %d bytes, allocated %d, err %v", n, cap(frame.buf), err)
	}

	oversized := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	frame = frameBuf{}
	if n, err := frame.readResponse(bytes.NewReader(oversized), &back); err == nil || n != 4 || frame.buf != nil {
		t.Fatalf("oversized prefix: metered %d bytes, allocated %d, err %v", n, cap(frame.buf), err)
	}
}

// jsonShard answers frames with the reflection codec, as a shard built
// before this change does.
func jsonShard(t *testing.T, conn net.Conn, answer func(jsonRequest) jsonResponse) {
	defer conn.Close()
	for {
		var prefix [4]byte
		if _, err := io.ReadFull(conn, prefix[:]); err != nil {
			return
		}
		payload := make([]byte, binary.BigEndian.Uint32(prefix[:]))
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Errorf("json shard: %v", err)
			return
		}
		var req jsonRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			t.Errorf("json shard cannot decode %q: %v", payload, err)
			return
		}
		out, err := json.Marshal(answer(req))
		if err != nil {
			t.Error(err)
			return
		}
		binary.BigEndian.PutUint32(prefix[:], uint32(len(out)))
		if _, err := conn.Write(append(prefix[:], out...)); err != nil {
			return
		}
	}
}

// jsonCall is one RPC of a router built before this change.
func jsonCall(t *testing.T, conn net.Conn, req jsonRequest) jsonResponse {
	t.Helper()
	out, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(out)))
	if _, err := conn.Write(append(prefix[:], out...)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(conn, prefix[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.BigEndian.Uint32(prefix[:]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatal(err)
	}
	var resp jsonResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		t.Fatalf("old router cannot decode %q: %v", payload, err)
	}
	return resp
}

// TestInteropWithReflectionCodec pins the mixed-version contract in
// both directions: ShardServer.ServeConn driven by json.Marshal-built
// frames and read back with json.Unmarshal, and ShardClient against a
// shard that speaks encoding/json only.
func TestInteropWithReflectionCodec(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	snap := publishRanks(t, store, g, tieRanks(g.NumVertices(), 13))
	srv := newShards(t, g, []*serve.Store{store})[0]

	conn, err := PipeDialer(srv)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	top := jsonCall(t, conn, jsonRequest{V: api.Version, Op: opTopK, K: 7, Rid: `old "router" <1>`})
	want := oracleResponse(response{
		V: api.Version, Epoch: snap.Epoch, Engine: snap.Engine, Seed: snap.Seed, Entries: snap.TopK(7),
	})
	if !reflect.DeepEqual(top, want) {
		t.Fatalf("old router decoded %+v, want %+v", top, want)
	}
	rank := jsonCall(t, conn, jsonRequest{V: api.Version, Op: opRank, Vertex: 3})
	if !rank.Owned || rank.Rank != snap.Ranks[3] || rank.Epoch != snap.Epoch {
		t.Fatalf("old router decoded rank %+v", rank)
	}
	if bad := jsonCall(t, conn, jsonRequest{V: api.Version + 1, Op: opTopK, K: 1}); bad.Code != api.CodeVersionMismatch || bad.Err == "" {
		t.Fatalf("version mismatch answered %+v", bad)
	}
	if status := jsonCall(t, conn, jsonRequest{V: api.Version, Op: opStatus}); status.OwnedCount != g.NumVertices() || status.Queries == 0 {
		t.Fatalf("old router decoded status %+v", status)
	}

	var seen []jsonRequest
	client := NewShardClient(0, "json-shard", func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		go jsonShard(t, c2, func(req jsonRequest) jsonResponse {
			seen = append(seen, req)
			if req.Op == opStatus {
				return jsonResponse{V: api.Version, Code: api.CodeBadRequest, Err: `no "status" <here>`}
			}
			return oracleResponse(response{
				V: api.Version, Shard: 0, Epoch: 4, Engine: serve.EngineFrogWild, Seed: 11,
				Entries: []topk.Entry{{Vertex: 5, Score: 0.5}, {Vertex: 2, Score: 1e-9}},
			})
		})
		return c1, nil
	}, time.Second)
	defer client.Close()
	req := request{V: api.Version, Op: opTopK, K: 2, Epoch: 4, Rid: "new-router"}
	resp, err := client.call(&req)
	if err != nil {
		t.Fatal(err)
	}
	if want := (response{
		V: api.Version, Epoch: 4, Engine: serve.EngineFrogWild, Seed: 11,
		Entries: []topk.Entry{{Vertex: 5, Score: 0.5}, {Vertex: 2, Score: 1e-9}},
	}); !reflect.DeepEqual(resp, want) {
		t.Fatalf("decoded %+v from the old shard, want %+v", resp, want)
	}
	resp, err = client.call(&request{V: api.Version, Op: opStatus})
	if err != nil || resp.Code != api.CodeBadRequest || resp.Err != `no "status" <here>` {
		t.Fatalf("error answer from the old shard: %+v, %v", resp, err)
	}
	if len(seen) != 2 || seen[0] != oracleRequest(req) {
		t.Fatalf("old shard decoded %+v", seen)
	}
}

// deadlineConn records the last deadline set on a connection.
type deadlineConn struct {
	net.Conn
	last   time.Time
	closed bool
}

func (c *deadlineConn) SetDeadline(t time.Time) error {
	c.last = t
	return c.Conn.SetDeadline(t)
}

func (c *deadlineConn) Close() error {
	c.closed = true
	return c.Conn.Close()
}

// TestClientPoolsOnlyCleanConns pins the two pooling rules: a
// connection goes back with its deadline cleared, and one whose
// response failed to decode is closed, never pooled half-read.
func TestClientPoolsOnlyCleanConns(t *testing.T) {
	garbage := false
	var dialed []*deadlineConn
	client := NewShardClient(0, "fake", func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		if garbage {
			go func() {
				defer c2.Close()
				c2.Read(make([]byte, 512)) //nolint:errcheck // the request
				payload := `{"v":1,"shard":0,"entries":[oops]}` + "left unread"
				// The prefix stops short of the payload, so the failed
				// decode also leaves bytes behind on the connection.
				c2.Write(append(binary.BigEndian.AppendUint32(nil, uint32(len(payload)-11)), payload...)) //nolint:errcheck
			}()
		} else {
			go jsonShard(t, c2, func(jsonRequest) jsonResponse { return jsonResponse{V: api.Version} })
		}
		conn := &deadlineConn{Conn: c1}
		dialed = append(dialed, conn)
		return conn, nil
	}, time.Second)
	defer client.Close()

	if _, err := client.call(&request{V: api.Version, Op: opStatus}); err != nil {
		t.Fatal(err)
	}
	if len(client.idle) != 1 || !dialed[0].last.IsZero() || dialed[0].closed {
		t.Fatalf("healthy conn: pooled %d, deadline %v, closed %v", len(client.idle), dialed[0].last, dialed[0].closed)
	}
	client.Close()

	garbage = true
	if _, err := client.call(&request{V: api.Version, Op: opStatus}); err == nil {
		t.Fatal("garbage frames decoded")
	}
	if len(client.idle) != 0 {
		t.Fatal("a connection with a half-read frame went back to the pool")
	}
	for _, conn := range dialed {
		if !conn.closed {
			t.Fatal("a failed connection was left open")
		}
	}
	if client.Retries() != 1 {
		t.Fatalf("retries %d, want 1 (the second attempt on a fresh connection)", client.Retries())
	}
}

// BenchmarkFrameCodec times one encode and one decode of a 100-entry
// response, the largest frame the benchmark's traffic carries.
func BenchmarkFrameCodec(b *testing.B) {
	resp := response{V: api.Version, Shard: 3, Epoch: 12, Engine: serve.EngineFrogWild, Seed: 7, Entries: make([]topk.Entry, 100)}
	for i := range resp.Entries {
		resp.Entries[i] = topk.Entry{Vertex: uint32(i * 977), Score: 1 / float64(3*i+7)}
	}
	var frame frameBuf
	var wire bytes.Buffer
	var back response
	n, err := frame.writeResponse(&wire, &resp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		if _, err := frame.writeResponse(&wire, &resp); err != nil {
			b.Fatal(err)
		}
		if _, err := frame.readResponse(&wire, &back); err != nil {
			b.Fatal(err)
		}
	}
	if !reflect.DeepEqual(back, resp) {
		b.Fatal("response did not round-trip")
	}
}
