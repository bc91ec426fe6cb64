package router

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frames.golden from the current frame writer")

// escapes needs every kind of escape encoding/json writes in a string:
// quote, backslash, the named control characters, other control
// characters, the HTML characters, U+2028 and U+2029, and invalid UTF-8
// (one U+FFFD per bad byte); valid multi-byte UTF-8 and DEL stay raw.
const escapes = "q\" b\\ \b\f\n\r\t nul\x00 esc\x1b del\x7f <a href=\"x\">&amp;</a> \u2028\u2029 é 日本 🐸 bad\xff\xfe\xc0 end"

// goldenFrames are the frames testdata/frames.golden holds, in order.
func goldenFrames() []struct {
	name string
	req  *request
	resp *response
} {
	top := response{V: api.Version, Shard: 3, Epoch: 12, Engine: serve.EngineFrogWild, Seed: 7, Entries: make([]topk.Entry, 100)}
	for i := range top.Entries {
		// Pairs of tied scores, falling across encoding/json's switch to
		// exponent form at 1e-6.
		top.Entries[i] = topk.Entry{Vertex: uint32(i * 977), Score: 0.3 * math.Pow(10, -float64(i/2)/6)}
	}
	mismatch := errResponse(0, api.CodeVersionMismatch, "shard speaks wire version %d, router sent %d", api.Version, api.Version+1)
	return []struct {
		name string
		req  *request
		resp *response
	}{
		{"rank request", &request{V: api.Version, Op: opRank, Vertex: 4242, Rid: "7f3a9c01-rank"}, nil},
		{"topk request", &request{V: api.Version, Op: opTopK, K: 100, Epoch: 12, Rid: "7f3a9c02-topk"}, nil},
		{"status request", &request{V: api.Version, Op: opStatus}, nil},
		{"escaped request", &request{V: api.Version, Op: escapes, Vertex: math.MaxUint32, Epoch: math.MaxUint64, Rid: escapes}, nil},
		{"topk response", nil, &top},
		{"owned rank response", nil, &response{V: api.Version, Shard: 2, Epoch: 12, Engine: serve.EngineFrogWild, Seed: 7, Owned: true, Rank: 2.5e-7}},
		{"unowned rank response", nil, &response{V: api.Version, Shard: 1, Epoch: 12, Engine: serve.EngineFrogWild, Seed: 7}},
		{"status response", nil, &response{V: api.Version, Shard: 1, Epoch: 12, Engine: serve.EngineFrogWild, Seed: math.MaxUint64, OwnedCount: 12500, Shards: 4, SnapshotAge: 0.38461538461538464}},
		{"version mismatch", nil, &mismatch},
		{"escaped error", nil, &response{V: api.Version, Shard: 2, Code: api.CodeBadRequest, Err: escapes, Engine: api.Engine(escapes)}},
	}
}

// TestFramesGolden holds the bytes frameBuf puts on the wire, length
// prefix included, to testdata/frames.golden: one line per frame, its
// name, a tab, and the frame as a Go-quoted string. A frame writer that
// changes any byte of any of them fails here (-update-golden rewrites
// the file, for a change that means to alter the wire and bumps
// api.Version with it).
func TestFramesGolden(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("# Shard RPC frames as frameBuf writes them, 4-byte length prefix included.\n")
	var frame frameBuf
	for _, f := range goldenFrames() {
		var wire bytes.Buffer
		var err error
		if f.req != nil {
			_, err = frame.write(&wire, f.req)
		} else {
			_, err = frame.write(&wire, f.resp)
		}
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&out, "%s\t%q\n", f.name, wire.Bytes())
	}

	path := filepath.Join("testdata", "frames.golden")
	if *updateGolden {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create it)", err)
	}
	if got := out.String(); got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("frames.golden line %d:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("wrote %d lines, frames.golden holds %d", len(gotLines), len(wantLines))
	}
}
