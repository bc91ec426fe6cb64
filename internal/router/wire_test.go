package router

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// jsonRequest and jsonResponse declare the frame structs apart from the
// codec: encoding/json over these is the oracle every codec test
// compares against (a tag changed on request or response fails it), and
// the stand-in for a peer that speaks encoding/json alone.
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
	SnapshotAge float64         `json:"snapshotAge,omitempty"`
}

func oracleRequest(r request) jsonRequest { return jsonRequest(r) }

func oracleResponse(r response) jsonResponse { return jsonResponse(r) }

// framed puts payload behind its length prefix.
func framed(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// decodeFrame frames payload and reads it as a request and as a
// response, each into a value an earlier frame filled, and reports which
// of the two it accepted. What it accepts must equal what encoding/json
// reads from payload into a zero value (compared as the frames they
// marshal to, so an absent entries member and an empty one are the
// same), with a response's entries reserved within a row per 8 payload
// bytes.
func decodeFrame(t *testing.T, payload []byte) (reqOK, respOK bool) {
	t.Helper()
	wire := framed(payload)
	var frame frameBuf
	req := request{V: 9, Op: "stale", K: 9, Vertex: 9, Epoch: 9, Rid: "stale"}
	if _, err := frame.read(bytes.NewReader(wire), &req); err == nil {
		reqOK = true
		var want jsonRequest
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("request %q: read accepted, encoding/json refused: %v", payload, err)
		}
		if oracleRequest(req) != want {
			t.Fatalf("request %q:\n read %+v\n json %+v", payload, req, want)
		}
	}
	resp := response{V: 9, Shard: 9, Code: "stale", Err: "stale", Epoch: 9, Engine: "stale", Seed: 9,
		Entries: []topk.Entry{{Vertex: 9, Score: 9}}, Owned: true, Rank: 9, OwnedCount: 9, Shards: 9, SnapshotAge: 9}
	if _, err := frame.read(bytes.NewReader(wire), &resp); err == nil {
		respOK = true
		if cap(resp.Entries) > len(payload)/8+1 {
			t.Fatalf("response %q: %d entries reserved for a %d-byte payload", payload, cap(resp.Entries), len(payload))
		}
		var want jsonResponse
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("response %q: read accepted, encoding/json refused: %v", payload, err)
		}
		got, err1 := json.Marshal(oracleResponse(resp))
		wantFrame, err2 := json.Marshal(want)
		if err1 != nil || err2 != nil || !bytes.Equal(got, wantFrame) {
			t.Fatalf("response %q:\n read %s\n json %s", payload, got, wantFrame)
		}
	}
	return reqOK, respOK
}

// checkEncode holds the frame writer to encoding/json of the oracle
// structs on one pair of structs: equal bytes behind a length prefix
// that counts them, or both refuse (a NaN or infinite number); and the
// reader reads back what the writer wrote.
func checkEncode(t *testing.T, req request, resp response) {
	t.Helper()
	want, err := json.Marshal(oracleRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	got, err := written(&req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("request %+v:\n written %s\n    json %s", req, got, want)
	}
	if ok, _ := decodeFrame(t, got); !ok {
		t.Fatalf("read refused the writer's own request %s", got)
	}

	want, wantErr := json.Marshal(oracleResponse(resp))
	got, err = written(&resp)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("response %+v: written error %v, json error %v", resp, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response %+v:\n written %s\n    json %s", resp, got, want)
	}
	if _, ok := decodeFrame(t, got); !ok {
		t.Fatalf("read refused the writer's own response %s", got)
	}
}

// written returns the payload of the frame frameBuf writes for v,
// checking that its length prefix and the metered count agree with it.
func written(v any) ([]byte, error) {
	var frame frameBuf
	var wire bytes.Buffer
	n, err := frame.write(&wire, v)
	if err != nil {
		return nil, err
	}
	if n != wire.Len() || n < 4 || int(binary.BigEndian.Uint32(wire.Bytes())) != n-4 {
		return nil, fmt.Errorf("metered %d bytes, wrote %d, prefix %x", n, wire.Len(), wire.Bytes()[:min(4, wire.Len())])
	}
	return wire.Bytes()[4:], nil
}

// checkStream reads data as a raw frame stream: whatever comes back,
// no panic, nothing read past the stream or past maxFrame, no buffer
// kept past maxRetainedBuf, and an accepted response's entries reserved
// within a row per 8 payload bytes.
func checkStream(t *testing.T, data []byte) {
	t.Helper()
	var frame frameBuf
	var req request
	n, err := frame.read(bytes.NewReader(data), &req)
	if n > len(data) || n > 4+maxFrame {
		t.Fatalf("metered %d bytes off a %d-byte stream", n, len(data))
	}
	if err == nil && n != 4+int(binary.BigEndian.Uint32(data)) {
		t.Fatalf("accepted frame metered %d bytes, prefix says %d", n, binary.BigEndian.Uint32(data))
	}
	var resp response
	if n, err := frame.read(bytes.NewReader(data), &resp); err == nil && cap(resp.Entries) > (n-4)/8+1 {
		t.Fatalf("%d entries reserved for a %d-byte payload", cap(resp.Entries), n-4)
	}
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

// FuzzFrame fuzzes the frame codec: payload is read as a bare payload
// and as a raw frame stream (bounded, and read as encoding/json reads
// it), the other arguments fill structs whose written bytes must be
// encoding/json's of the oracle structs, so a changed tag fails.
func FuzzFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s.payload), s.text, s.num, s.u)
	}
	f.Fuzz(func(t *testing.T, payload []byte, text string, num float64, u uint64) {
		decodeFrame(t, payload)
		checkStream(t, payload)
		req := request{V: int(u % 3), Op: text, K: int(int32(u >> 8)), Vertex: uint32(u >> 16), Epoch: u, Rid: text}
		resp := response{
			V: int(u % 3), Shard: int(u % 7), Code: text, Err: text, Epoch: u >> 1, Engine: api.Engine(text), Seed: u,
			Owned: u&1 == 1, Rank: num, OwnedCount: int(u >> 32), Shards: int(u >> 3), SnapshotAge: -num,
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

// TestDecodeFrames is the accept/refuse table of the frame language,
// which is what encoding/json reads into request and response: any
// JSON object of the right member types. The rows named for a stricter
// language (member order, whitespace, folded or escaped names,
// duplicates, unknown members, null, escapes, invalid UTF-8, empty
// entries) pin that such frames are accepted; syntax errors, trailing
// bytes, wrong types and numbers out of range are refused. Every case
// is also held to encoding/json by decodeFrame.
func TestDecodeFrames(t *testing.T) {
	cases := []struct {
		name    string
		payload string
		req     bool // read accepts it as a request
		resp    bool // read accepts it as a response
	}{
		{"request, required members", `{"v":3,"op":"status"}`, true, true},
		{"request, every member", `{"v":3,"op":"topk","k":5,"vertex":7,"epoch":9,"rid":"a\"b"}`, true, true},
		{"response, required members", `{"v":3,"shard":0}`, true, true},
		{"response, every member", `{"v":3,"shard":1,"code":"c","error":"e","epoch":2,"engine":"frogwild","seed":7,` +
			`"entries":[{"vertex":4,"score":0.25},{"vertex":0,"score":1e-7}],"owned":true,"rank":5e-324,"ownedCount":12,"shards":4,"snapshotAge":1.5}`, true, true},
		{"members of the other frame type are unknown", `{"v":3,"shard":3,"entries":[{"vertex":1,"score":2}]}`, true, true},
		{"escapes appendString writes", `{"v":3,"op":"\"\\\b\f\n\r\t\u0000\u001b\u003c\u0026\u2028\u2029\ufffd"}`, true, true},
		{"upper-case hex escape", `{"v":3,"op":"\u00E9"}`, true, true},
		{"raw UTF-8", "{\"v\":3,\"op\":\"é 日本 🐸 \x7f\u2028\"}", true, true},
		{"negative zero int", `{"v":-0,"op":"x"}`, true, true},
		{"number grammar", `{"v":3,"shard":-0,"rank":-0.5E+2,"snapshotAge":1e-2}`, true, true},
		{"zero in an omitempty member", `{"v":3,"op":"topk","k":0}`, true, true},

		// Spellings a stricter reader would refuse; encoding/json reads
		// most of them, and answer refuses a zero v by name.
		{"empty object", `{}`, true, true},
		{"v missing", `{"op":"topk"}`, true, true},
		{"op missing", `{"v":3,"k":5}`, true, true},
		{"shard missing", `{"v":3,"code":"x"}`, true, true},
		{"members out of order", `{"v":3,"op":"topk","epoch":9,"k":5}`, true, true},
		{"required members out of order", `{"op":"topk","v":3}`, true, true},
		{"duplicate member", `{"v":3,"op":"topk","k":1,"k":2}`, true, true},
		{"duplicate under folding", `{"v":3,"op":"topk","k":1,"K":2}`, true, true},
		{"unknown members", `{"v":3,"op":"topk","deadline":12.5,"tags":["a",{"b":[true,false,null]}],"k":5}`, true, true},
		{"removed queries member", `{"v":3,"shard":0,"queries":42}`, true, true},
		{"names do not fold", `{"V":3,"Op":"rank"}`, true, true},
		{"escaped name", `{"\u0076":3,"op":"status"}`, true, true},
		{"whitespace", `{"v":3, "op":"topk"}`, true, true},
		{"whitespace around the object", " {\"v\":3,\"op\":\"topk\"}\n", true, true},
		{"owned false", `{"v":3,"shard":0,"owned":false}`, true, true},
		{"null for a known member", `{"v":3,"op":null}`, true, true},
		{"null for an unknown member", `{"v":3,"op":"topk","w":null}`, true, true},
		{"fraction for an int", `{"v":3,"op":"topk","k":1.5}`, false, true},
		{"exponent for an int", `{"v":3,"op":"topk","k":1e2}`, false, true},
		{"negative unsigned", `{"v":3,"op":"topk","epoch":-1}`, false, false},
		{"vertex past uint32", `{"v":3,"op":"rank","vertex":4294967296}`, false, true},
		{"string for a number", `{"v":"3","op":"topk"}`, false, false},
		{"number for a string", `{"v":3,"op":1}`, false, true},
		{"leading zero", `{"v":03,"op":"topk"}`, false, false},
		{"bare minus", `{"v":-,"op":"topk"}`, false, false},
		{"plus sign", `{"v":+3,"op":"topk"}`, false, false},
		{"bare fraction point", `{"v":3,"shard":0,"rank":1.}`, false, false},
		{"bare exponent", `{"v":3,"shard":0,"rank":1e}`, false, false},
		{"float out of range", `{"v":3,"shard":0,"rank":1e999}`, true, false},
		{"empty entries", `{"v":3,"shard":0,"entries":[]}`, true, true},
		{"entry not an object", `{"v":3,"shard":0,"entries":[1]}`, true, false},
		{"entry null", `{"v":3,"shard":0,"entries":[null]}`, true, true},
		{"entry members swapped", `{"v":3,"shard":0,"entries":[{"score":1,"vertex":1}]}`, true, true},
		{"entry member missing", `{"v":3,"shard":0,"entries":[{"vertex":1}]}`, true, true},
		{"entry with an extra member", `{"v":3,"shard":0,"entries":[{"vertex":1,"score":1,"x":2}]}`, true, true},
		{"entries trailing comma", `{"v":3,"shard":0,"entries":[{"vertex":1,"score":1},]}`, false, false},
		{"entries unterminated", `{"v":3,"shard":0,"entries":[{"vertex":1,"score":1}`, false, false},
		{"object trailing comma", `{"v":3,"op":"topk",}`, false, false},
		{"missing colon", `{"v":3,"op" "topk"}`, false, false},
		{"missing comma", `{"v":3 "op":"topk"}`, false, false},
		{"control byte in string", "{\"v\":3,\"op\":\"a\nb\"}", false, false},
		{"invalid UTF-8 in string", "{\"v\":3,\"op\":\"a\xffb\"}", true, true},
		{"bad escape", `{"v":3,"op":"\x"}`, false, false},
		{"single-quote escape", `{"v":3,"op":"\'"}`, false, false},
		{"solidus escape", `{"v":3,"op":"\/"}`, true, true},
		{"surrogate escape", `{"v":3,"op":"\ud83d\udc38"}`, true, true},
		{"short unicode escape", `{"v":3,"op":"\u12"}`, false, false},
		{"signed unicode escape", `{"v":3,"op":"\u+123"}`, false, false},
		{"escape at the end", `{"v":3,"op":"\`, false, false},
		{"unterminated string", `{"v":3,"op":"abc`, false, false},
		{"unterminated object", `{"v":3,"op":"topk"`, false, false},
		{"trailing bytes", `{"v":3,"op":"topk"}x`, false, false},
		{"two values", `{"v":3,"op":"topk"}{"v":3,"op":"topk"}`, false, false},
		{"top-level array", `[]`, false, false},
		{"top-level null", `null`, true, true},
		{"empty payload", ``, false, false},
		{"garbage", "\x00\xff\x13garbage", false, false},
		{"bad syntax inside an unknown member", `{"v":3,"op":"topk","w":[1,2,}`, false, false},
		{"bad literal inside an unknown member", `{"v":3,"op":"topk","w":tru}`, false, false},
		{"unknown member nested deep", `{"v":3,"op":"topk","w":` + strings.Repeat("[", 64) + strings.Repeat("]", 64) + `}`, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, resp := decodeFrame(t, []byte(tc.payload))
			if req != tc.req || resp != tc.resp {
				t.Fatalf("accepted as request %v (want %v), as response %v (want %v)", req, tc.req, resp, tc.resp)
			}
		})
	}

	// Whitespace, member order, folded names, unknown members, escapes
	// and invalid UTF-8 (read as U+FFFD) spell the same request.
	want := request{V: 3, Op: opTopK, K: 5, Epoch: 9, Rid: "a\"b\u00e9\ufffd"}
	for _, payload := range []string{
		"{\"v\":3,\"op\":\"topk\",\"k\":5,\"epoch\":9,\"rid\":\"a\\\"b\u00e9\\ufffd\"}",
		"\n{ \"RID\" : \"a\\\"b\\u00e9\xff\", \"Epoch\":9,\"deadline\":[{\"x\":null}],\"\\u006b\":5,\"Op\":\"topk\",\"v\":3}\t",
	} {
		var frame frameBuf
		var req request
		if _, err := frame.read(bytes.NewReader(framed([]byte(payload))), &req); err != nil || req != want {
			t.Fatalf("%q decoded %+v, %v; want %+v", payload, req, err, want)
		}
	}
}

// TestFrameBounds pins the framing limits: a truncated frame and an
// oversized prefix are errors, the meters count what was read, a
// buffer grown past maxRetainedBuf is not kept, and a response's
// entries are reserved within a row per 8 payload bytes.
func TestFrameBounds(t *testing.T) {
	var frame frameBuf
	var sink bytes.Buffer
	big := response{V: api.Version, Entries: make([]topk.Entry, maxRetainedBuf/16)}
	for i := range big.Entries {
		big.Entries[i] = topk.Entry{Vertex: uint32(i), Score: 1 / float64(i+1)}
	}
	n, err := frame.write(&sink, &big)
	if err != nil || n != sink.Len() || n <= maxRetainedBuf {
		t.Fatalf("wrote %d bytes (buffer holds %d), err %v", n, sink.Len(), err)
	}
	if frame.buf != nil {
		t.Fatalf("kept a %d-byte buffer after a %d-byte frame", cap(frame.buf), n)
	}
	wire := append([]byte(nil), sink.Bytes()...)

	var back response
	if n, err := frame.read(bytes.NewReader(wire), &back); err != nil || n != len(wire) {
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
	if _, err := frame.write(&sink, &small); err != nil {
		t.Fatal(err)
	}
	kept := &frame.buf[0]
	sink.Reset()
	if _, err := frame.write(&sink, &small); err != nil {
		t.Fatal(err)
	}
	if &frame.buf[0] != kept {
		t.Fatal("small frames do not reuse the connection's buffer")
	}

	for cut := 0; cut < len(wire); cut += 1 + len(wire)/50 {
		n, err := frame.read(bytes.NewReader(wire[:cut]), &back)
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
	if n, err := frame.read(bytes.NewReader(hostile), &back); err == nil || n != len(hostile) || cap(frame.buf) > 2*maxRetainedBuf {
		t.Fatalf("hostile prefix: metered %d bytes, allocated %d, err %v", n, cap(frame.buf), err)
	}

	oversized := binary.BigEndian.AppendUint32(nil, maxFrame+1)
	frame = frameBuf{}
	if n, err := frame.read(bytes.NewReader(oversized), &back); err == nil || n != 4 || frame.buf != nil {
		t.Fatalf("oversized prefix: metered %d bytes, allocated %d, err %v", n, cap(frame.buf), err)
	}

	// Rows denser in commas than any this package writes would make
	// encoding/json reserve many times the payload: they are refused
	// before anything is decoded into the response.
	rows := func(row string) []byte {
		payload := []byte(`{"v":3,"shard":0,"entries":[` + row)
		for len(payload) < maxRetainedBuf {
			payload = append(append(payload, ','), row...)
		}
		return append(payload, "]}"...)
	}
	for _, row := range []string{`{}`, `null`} {
		wire := framed(rows(row))
		back = response{Shard: 99}
		if n, err := frame.read(bytes.NewReader(wire), &back); err == nil || n != len(wire) || back.Shard != 99 || back.Entries != nil {
			t.Fatalf("%d-byte frame of %s rows: metered %d, err %v, decoded into %+v", len(wire), row, n, err, back)
		}
	}
	// Commas inside a string, behind an escaped quote, separate nothing.
	commas := response{V: api.Version, Code: api.CodeBadRequest, Err: `"[` + strings.Repeat(",", 1000)}
	sink.Reset()
	if _, err := frame.write(&sink, &commas); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.read(&sink, &back); err != nil || back.Err != commas.Err {
		t.Fatalf("error of %d commas read back as %q, %v", len(commas.Err)-2, back.Err, err)
	}
	// An answer without an array reserves no entries.
	rank := response{V: api.Version, Shard: 1, Epoch: 4, Owned: true, Rank: 0.25}
	sink.Reset()
	if _, err := frame.write(&sink, &rank); err != nil {
		t.Fatal(err)
	}
	if _, err := frame.read(&sink, &back); err != nil || !reflect.DeepEqual(back, rank) {
		t.Fatalf("rank answer read back as %+v (%d entries reserved), %v", back, cap(back.Entries), err)
	}
	// The smallest real rows, and the densest in commas read accepts.
	for _, row := range []string{`{"vertex":0,"score":1}`, `{"x":0}`} {
		payload := rows(row)
		_, err := frame.read(bytes.NewReader(framed(payload)), &back)
		if err != nil || len(back.Entries) != bytes.Count(payload, []byte(row)) || cap(back.Entries) > len(payload)/8+1 {
			t.Fatalf("%d-byte frame of %s rows: %d entries in %d reserved, err %v", len(payload), row, len(back.Entries), cap(back.Entries), err)
		}
	}
}

// TestServeConnZeroesEachRequest sends two request frames on one
// connection: the first carries epoch, k and rid, the second none of
// them. encoding/json keeps what a frame omits, so unless every frame is
// read into a zeroed request the second is answered at the first one's
// epoch and logged under its rid and k.
func TestServeConnZeroesEachRequest(t *testing.T) {
	g := testGraph(t)
	store := serve.NewStore()
	old := publishRanks(t, store, g, tieRanks(g.NumVertices(), 3))
	srv := newShards(t, g, []*serve.Store{store})[0]
	var log bytes.Buffer
	srv.SetRequestLog(obs.NewLogger(&log))
	conn, err := PipeDialer(srv)()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var frame frameBuf
	call := func(payload string) response {
		t.Helper()
		if _, err := conn.Write(framed([]byte(payload))); err != nil {
			t.Fatal(err)
		}
		var resp response
		if _, err := frame.read(conn, &resp); err != nil || resp.Code != "" {
			t.Fatalf("%s: answered %+v, %v", payload, resp, err)
		}
		return resp
	}
	call(fmt.Sprintf(`{"v":%d,"op":"status"}`, api.Version)) // the shard retains old once it has seen it
	cur := publishRanks(t, store, g, tieRanks(g.NumVertices(), 4))

	first := call(fmt.Sprintf(`{"v":%d,"op":"topk","k":3,"epoch":%d,"rid":"first"}`, api.Version, old.Epoch))
	if first.Epoch != old.Epoch || len(first.Entries) != 3 {
		t.Fatalf("first frame answered at epoch %d with %d entries, want epoch %d and 3", first.Epoch, len(first.Entries), old.Epoch)
	}
	second := call(fmt.Sprintf(`{"v":%d,"op":"rank","vertex":2}`, api.Version))
	if second.Epoch != cur.Epoch || !second.Owned || second.Rank != cur.Ranks[2] {
		t.Fatalf("second frame answered %+v, want vertex 2's rank at the current epoch %d", second, cur.Epoch)
	}
	logged := decodeLog(t, &log)
	if last := logged[len(logged)-1]; last.Op != opRank || last.RID != "" || last.K != 0 {
		t.Fatalf("second frame logged %+v, want op rank with no rid and no k", last)
	}
}

// jsonShard answers frames with encoding/json alone, as a shard that
// shares no code with this package would.
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

// jsonCall is one RPC of a router that speaks encoding/json alone.
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
	if status := jsonCall(t, conn, jsonRequest{V: api.Version, Op: opStatus}); status.OwnedCount != g.NumVertices() || status.Shards != 1 {
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
	n, err := frame.write(&wire, &resp)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(n))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire.Reset()
		if _, err := frame.write(&wire, &resp); err != nil {
			b.Fatal(err)
		}
		if _, err := frame.read(&wire, &back); err != nil {
			b.Fatal(err)
		}
	}
	if !reflect.DeepEqual(back, resp) {
		b.Fatal("response did not round-trip")
	}
}
