package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"testing"

	"repro/internal/topk"
)

// TestAppendFloat holds the number writer to encoding/json, on the
// values where its form changes (zero, the 1e-6 and 1e21 switches to
// exponent form, one- and three-digit exponents, subnormals) and on
// 200 000 finite float64s drawn bit pattern by bit pattern; NaN and ±Inf
// are refused, as encoding/json refuses them, with dst untouched.
func TestAppendFloat(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, 0.15, 1e-6, math.Nextafter(1e-6, 0), 1e-7, 1.5e-10, 1e21,
		math.Nextafter(1e21, 0), 1e100, 5e-324, math.SmallestNonzeroFloat64 * 3, math.MaxFloat64, -2.5e-8}
	r := rand.New(rand.NewPCG(1, 2))
	for len(fs) < 200_000 {
		if f := math.Float64frombits(r.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			fs = append(fs, f)
		}
	}
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendFloat(nil, f); err != nil || string(got) != string(want) {
			t.Fatalf("%b: got %s (%v), encoding/json writes %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got, err := appendFloat([]byte("x"), f); err == nil || string(got) != "x" {
			t.Errorf("%v: got %q, %v; want x and an error", f, got, err)
		}
	}
}

// checkTopKBody holds the index of rows to encoding/json: it is refused
// exactly when json.Marshal refuses a row, and otherwise its body for
// k ≥ 0, and the whole body of its Prefix(k), is json.Marshal of the
// top-k's TopKResponse plus a newline.
func checkTopKBody(t *testing.T, epoch uint64, engine Engine, seed uint64, rows []topk.Entry, k int, degraded bool) *TopKIndex {
	t.Helper()
	entries := make([]TopKEntry, len(rows))
	for i, e := range rows {
		entries[i] = TopKEntry{Vertex: e.Vertex, Score: e.Score}
	}
	x, err := NewTopKIndex(epoch, engine, seed, rows)
	if _, wantErr := json.Marshal(entries); (err != nil) != (wantErr != nil) {
		t.Fatalf("rows %v: index error %v, encoding/json error %v", rows, err, wantErr)
	}
	if err != nil {
		return nil
	}
	n := min(k, len(rows))
	want, err := json.Marshal(TopKResponse{Epoch: epoch, Engine: engine, Seed: seed, K: n, Entries: entries[:n], Degraded: degraded})
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if got := x.appendBody(nil, k, degraded); !bytes.Equal(got, want) {
		t.Fatalf("k=%d:\n got %s\nwant %s", k, got, want)
	}
	if got := x.Prefix(k).appendBody(nil, len(rows), degraded); !bytes.Equal(got, want) {
		t.Fatalf("Prefix(%d):\n got %s\nwant %s", k, got, want)
	}
	return x
}

// TestTopKBody runs checkTopKBody, for every k from 0 to past the end,
// on the lists a writer can get wrong: empty, tie runs (copied, not
// formatted), a negative zero after a zero (equal as floats, not as
// text), exponent-form scores, an engine name that needs escaping, and
// a NaN or infinity anywhere in the list; then writes one body through
// WriteBody.
func TestTopKBody(t *testing.T) {
	neg0 := math.Copysign(0, -1)
	lists := [][]topk.Entry{
		nil,
		{{Vertex: 7, Score: 0.25}},
		{{Vertex: 1, Score: 0.5}, {Vertex: 2, Score: 0.5}, {Vertex: 9, Score: 0.5}, {Vertex: 3, Score: 1e-7}, {Vertex: 4, Score: 1e-7}},
		{{Vertex: 1, Score: 0}, {Vertex: 2, Score: neg0}, {Vertex: 3, Score: neg0}, {Vertex: 4, Score: 0}},
		{{Vertex: math.MaxUint32, Score: 1e21}, {Vertex: 0, Score: 5e-324}},
		{{Vertex: 1, Score: 0.5}, {Vertex: 2, Score: math.Inf(1)}},
		{{Vertex: 1, Score: math.NaN()}, {Vertex: 2, Score: math.NaN()}},
		{{Vertex: 1, Score: 0.5}, {Vertex: 2, Score: 0.5}, {Vertex: 3, Score: math.Inf(-1)}},
	}
	for _, rows := range lists {
		for k := 0; k <= len(rows)+2; k++ {
			for _, degraded := range []bool{false, true} {
				checkTopKBody(t, 3, "frogwild", 11, rows, k, degraded)
				checkTopKBody(t, 0, `<a "&" b>`+"\u2028\xff", math.MaxUint64, rows, k, degraded)
			}
		}
	}

	x := checkTopKBody(t, 3, "frogwild", 11, lists[2], 0, false)
	w := httptest.NewRecorder()
	x.WriteBody(w, 2, true)
	want := `{"epoch":3,"engine":"frogwild","seed":11,"k":2,"entries":[{"vertex":1,"score":0.5},{"vertex":2,"score":0.5}],"degraded":true}` + "\n"
	if got := w.Body.String(); got != want || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("WriteBody: %s (Content-Type %q), want %s", got, w.Header().Get("Content-Type"), want)
	}
}

// FuzzTopKBody is checkTopKBody on arbitrary lists, each 12 bytes of
// data a vertex and the bits of its score, at any k from 0 to two past
// the list's end.
func FuzzTopKBody(f *testing.F) {
	f.Add([]byte{}, "frogwild", uint64(1), uint64(2), 0, false)
	f.Fuzz(func(t *testing.T, data []byte, engine string, epoch, seed uint64, k int, degraded bool) {
		rows := make([]topk.Entry, len(data)/12)
		for i := range rows {
			rows[i].Vertex = binary.LittleEndian.Uint32(data[12*i:])
			rows[i].Score = math.Float64frombits(binary.LittleEndian.Uint64(data[12*i+4:]))
		}
		checkTopKBody(t, epoch, Engine(engine), seed, rows, int(uint(k)%uint(len(rows)+3)), degraded)
	})
}
