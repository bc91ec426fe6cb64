package api

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/topk"
)

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21
// on, with a one-digit exponent unpadded (1e-07 becomes 1e-7). Like
// encoding/json it refuses NaN and ±Inf.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("api: unsupported number %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendTopKRows appends rows as encoding/json writes a []TopKEntry
// between its brackets: {"vertex":…,"score":…} each, comma-separated.
// It writes that row format for the /v1/topk bodies of both planes and
// the /v1/ppr cut (shard frames leave it to encoding/json). Rows come
// in score order, so ties run long: a score with the bits of the row
// above is copied, not formatted again.
func AppendTopKRows(dst []byte, rows []topk.Entry) ([]byte, error) {
	var scoreAt, scoreEnd int
	for i, e := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"vertex":`...)
		dst = strconv.AppendUint(dst, uint64(e.Vertex), 10)
		dst = append(dst, `,"score":`...)
		if i > 0 && math.Float64bits(e.Score) == math.Float64bits(rows[i-1].Score) {
			dst = append(dst, dst[scoreAt:scoreEnd]...)
		} else {
			var err error
			scoreAt = len(dst)
			if dst, err = appendFloat(dst, e.Score); err != nil {
				return dst, err
			}
			scoreEnd = len(dst)
		}
		dst = append(dst, '}')
	}
	return dst, nil
}

// TopKIndex is a top list rendered once as /v1/topk bodies. topk's
// order is total, so the top-k of the list is its first k rows and the
// body for any k is the rendered head, k, and a prefix of the rendered
// rows: no number is formatted per request. It is read-only once built.
type TopKIndex struct {
	head []byte // `{"epoch":…,"engine":…,"seed":…,"k":`
	rows []byte // AppendTopKRows of the list
	ends []int  // ends[k] is where the first k rows end in rows
}

// NewTopKIndex renders entries, a top list in topk's order at epoch,
// computed by engine from seed. It fails only on a score encoding/json
// refuses (NaN or ±Inf).
func NewTopKIndex(epoch uint64, engine Engine, seed uint64, entries []topk.Entry) (*TopKIndex, error) {
	rows, err := AppendTopKRows(nil, entries)
	if err != nil {
		return nil, err
	}
	head, _ := json.Marshal(TopKResponse{Epoch: epoch, Engine: engine, Seed: seed}) // no float: cannot fail
	x := &TopKIndex{head: head[:len(head)-len(`0,"entries":null}`)], rows: rows, ends: make([]int, 1, len(entries)+1)}
	for i, c := range rows {
		if c == '}' { // a row holds no '}' but its last byte
			x.ends = append(x.ends, i+1)
		}
	}
	return x, nil
}

// Len is the number of rows.
func (x *TopKIndex) Len() int { return len(x.ends) - 1 }

// Prefix returns the index of the first k rows, holding a copy of them
// so a longer list can be let go.
func (x *TopKIndex) Prefix(k int) *TopKIndex {
	if k >= x.Len() {
		return x
	}
	return &TopKIndex{head: x.head, rows: slices.Clone(x.rows[:x.ends[k]]), ends: slices.Clone(x.ends[:k+1])}
}

// appendBody appends the body for the top-k, k ≥ 0: encoding/json's
// TopKResponse of the first min(k, Len()) rows, then a newline.
func (x *TopKIndex) appendBody(dst []byte, k int, degraded bool) []byte {
	k = min(k, x.Len())
	dst = append(dst, x.head...)
	dst = strconv.AppendInt(dst, int64(k), 10)
	dst = append(dst, `,"entries":[`...)
	dst = append(dst, x.rows[:x.ends[k]]...)
	if degraded {
		return append(dst, "],\"degraded\":true}\n"...)
	}
	return append(dst, "]}\n"...)
}

// bodies recycles the buffers WriteBody assembles bodies in; one grown
// past 64 KiB by a large k is left to the collector instead.
var bodies = sync.Pool{New: func() any { return new([]byte) }}

// WriteBody writes the /v1/topk body for the top-k. degraded marks a
// router answer served from a stale merge because a shard was down.
func (x *TopKIndex) WriteBody(w http.ResponseWriter, k int, degraded bool) {
	buf := bodies.Get().(*[]byte)
	*buf = x.appendBody((*buf)[:0], k, degraded)
	WriteJSON(w, *buf)
	if cap(*buf) <= 64<<10 {
		bodies.Put(buf)
	}
}
