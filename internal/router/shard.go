package router

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/topk"
)

// OwnedVertices is Stride(g.NumVertices(), shards, id), for a caller
// that holds the graph; seed is ignored, and it stays for callers that
// still pass one.
func OwnedVertices(g *graph.Graph, shards, id int, seed uint64) ([]uint32, error) {
	if id < 0 || id >= shards {
		return nil, errors.New("router: shard id out of range")
	}
	return Stride(g.NumVertices(), shards, id), nil
}

// Stride lists id, id+shards, id+2*shards, … below n: the vertices
// shard id of shards owns in an n-vertex graph. Ownership is a pure
// function of the vertex id, so every process of a cluster agrees on it
// without coordination and without reading an edge, the sets of the
// shards are disjoint and cover the whole vertex space — the property
// that makes the merged partial top-k exact — and the router finds a
// vertex's owner by the same arithmetic. The shard at position i of the
// router's list must be the one serving id i.
func Stride(n, shards, id int) []uint32 {
	owned := make([]uint32, 0, (n-id+shards-1)/shards)
	for v := id; v < n; v += shards {
		owned = append(owned, uint32(v))
	}
	return owned
}

// epochIndex is one retained snapshot with this shard's top index over
// it: topk.Subset(snap.Ranks, owned, snap.MaxK), built once when track
// first sees the snapshot. The order is total, so any shorter partial
// top-k is a prefix of it — the property Snapshot.TopK rests on, per
// partition.
type epochIndex struct {
	snap *serve.Snapshot
	top  []topk.Entry
}

// ShardServer answers partial queries over the vertices it owns, from
// whatever snapshot its Store currently publishes. It retains the
// previous snapshot alongside the current one, so a router whose other
// shards lag a refresh can re-ask this shard at the older epoch and
// still get a consistent answer (the stale-epoch fallback).
type ShardServer struct {
	id     int
	shards int
	owned  []uint32
	store  *serve.Store

	// mu guards the cur/prev retention ring, updated lazily as the
	// store publishes new snapshots.
	mu   sync.Mutex
	cur  epochIndex
	prev epochIndex

	// Free-standing obs instruments, live from construction and
	// exposed on a registry via Instrument. opsByName maps RPC op
	// names to their counters.
	queries    obs.Counter
	opsTopK    obs.Counter
	opsRank    obs.Counter
	opsStatus  obs.Counter
	handleLat  obs.Latency
	bytesRead  obs.Counter
	bytesWrite obs.Counter

	reqLog *obs.Logger
}

// NewShardServer builds a shard over its owned vertex set (as computed
// by Stride, ascending) and the store publishing its snapshots.
func NewShardServer(id, shards int, owned []uint32, store *serve.Store) *ShardServer {
	return &ShardServer{id: id, shards: shards, owned: owned, store: store}
}

// Queries returns how many RPC requests the shard has answered.
func (s *ShardServer) Queries() uint64 { return s.queries.Value() }

// SetRequestLog makes the shard emit one JSON line per RPC it handles,
// carrying the router-propagated request id. Call before serving.
func (s *ShardServer) SetRequestLog(l *obs.Logger) { s.reqLog = l }

// Instrument registers the shard's instruments on reg under the
// shard_* names, labeled with the shard id. The status RPC and
// /metrics read the same counters, so the two surfaces agree. Scraping
// the snapshot gauges reads the store directly — never track() — so a
// scrape has no side effect on the cur/prev retention ring.
func (s *ShardServer) Instrument(reg *obs.Registry) {
	shard := obs.Labels{"shard": strconv.Itoa(s.id)}
	withOp := func(op string) obs.Labels {
		return obs.Labels{"shard": strconv.Itoa(s.id), "op": op}
	}
	reg.RegisterCounter("shard_requests_total",
		"RPC requests answered by this shard.", shard, &s.queries)
	reg.RegisterCounter("shard_ops_total",
		"RPC requests by operation.", withOp(opTopK), &s.opsTopK)
	reg.RegisterCounter("shard_ops_total",
		"RPC requests by operation.", withOp(opRank), &s.opsRank)
	reg.RegisterCounter("shard_ops_total",
		"RPC requests by operation.", withOp(opStatus), &s.opsStatus)
	reg.RegisterLatency("shard_handle_seconds",
		"RPC handling latency (decode/encode excluded).", shard, &s.handleLat)
	reg.RegisterCounter("shard_frame_bytes_read_total",
		"Wire bytes read off shard connections (length prefixes included).", shard, &s.bytesRead)
	reg.RegisterCounter("shard_frame_bytes_written_total",
		"Wire bytes written to shard connections (length prefixes included).", shard, &s.bytesWrite)
	reg.GaugeFunc("shard_snapshot_epoch",
		"Epoch of the shard's current snapshot (0 before the first publish).", shard, func() float64 {
			if snap := s.store.Current(); snap != nil {
				return float64(snap.Epoch)
			}
			return 0
		})
	reg.GaugeFunc("shard_snapshot_age_seconds",
		"Seconds since the shard's current snapshot was built (0 before the first publish).", shard, func() float64 {
			if snap := s.store.Current(); snap != nil {
				return time.Since(snap.BuiltAt).Seconds()
			}
			return 0
		})
}

// track refreshes the retention ring against the store and returns the
// current and previous snapshots with their indexes. The index is built
// under mu, so each snapshot is indexed exactly once however many RPCs
// first see it together.
func (s *ShardServer) track() (cur, prev epochIndex) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.store.Current(); c != s.cur.snap {
		s.prev, s.cur = s.cur, epochIndex{snap: c}
		if c != nil {
			s.cur.top = topk.Subset(c.Ranks, s.owned, c.MaxK)
		}
	}
	return s.cur, s.prev
}

// snapshotFor resolves the requested epoch: 0 means current, the
// previous epoch is served from the retention ring, anything else is
// gone (a nil snap).
func (s *ShardServer) snapshotFor(epoch uint64) epochIndex {
	cur, prev := s.track()
	switch {
	case cur.snap == nil:
	case epoch == 0 || epoch == cur.snap.Epoch:
		return cur
	case prev.snap != nil && epoch == prev.snap.Epoch:
		return prev
	}
	return epochIndex{}
}

// topK returns the partial top-k over the owned vertices: a prefix of
// the index when it reaches k or already holds the whole partition, a
// fresh selection otherwise (mirroring Snapshot.TopK's fallback). The
// result is read-only.
func (s *ShardServer) topK(idx epochIndex, k int) []topk.Entry {
	if k <= idx.snap.MaxK || len(idx.top) < idx.snap.MaxK {
		return idx.top[:min(k, len(idx.top))]
	}
	return topk.Subset(idx.snap.Ranks, s.owned, k)
}

// owns reports whether vertex v is mastered by this shard.
func (s *ShardServer) owns(v uint32) bool {
	_, ok := slices.BinarySearch(s.owned, v)
	return ok
}

// handle instruments one RPC: op counters, handling latency, and —
// when a request log is set — one JSON line carrying the propagated
// request id.
func (s *ShardServer) handle(req *request) response {
	start := time.Now()
	resp := s.answer(req)
	dur := time.Since(start)
	s.handleLat.Observe(dur)
	switch req.Op {
	case opTopK:
		s.opsTopK.Inc()
	case opRank:
		s.opsRank.Inc()
	case opStatus:
		s.opsStatus.Inc()
	}
	if s.reqLog.Enabled() {
		e := obs.Entry{
			Component: "shard",
			RID:       req.Rid,
			Op:        req.Op,
			K:         req.K,
			Epoch:     resp.Epoch,
			Code:      resp.Code,
			Err:       resp.Err,
			DurMS:     dur.Seconds() * 1e3,
		}
		if req.Op == opRank {
			e.Vertex = strconv.FormatUint(uint64(req.Vertex), 10)
		}
		s.reqLog.Log(e)
	}
	return resp
}

// answer computes one RPC response.
func (s *ShardServer) answer(req *request) response {
	if req.V != api.Version {
		return errResponse(s.id, api.CodeVersionMismatch,
			"shard speaks wire version %d, router sent %d", api.Version, req.V)
	}
	s.queries.Inc()
	switch req.Op {
	case opTopK:
		if req.K <= 0 {
			return errResponse(s.id, api.CodeBadRequest, "k must be positive, got %d", req.K)
		}
		idx := s.snapshotFor(req.Epoch)
		if idx.snap == nil {
			return errResponse(s.id, api.CodeNoSnapshot, "no snapshot for epoch %d", req.Epoch)
		}
		return response{
			V: api.Version, Shard: s.id,
			Epoch: idx.snap.Epoch, Engine: idx.snap.Engine, Seed: idx.snap.Seed,
			Entries: s.topK(idx, req.K),
		}
	case opRank:
		snap := s.snapshotFor(req.Epoch).snap
		if snap == nil {
			return errResponse(s.id, api.CodeNoSnapshot, "no snapshot for epoch %d", req.Epoch)
		}
		resp := response{
			V: api.Version, Shard: s.id,
			Epoch: snap.Epoch, Engine: snap.Engine, Seed: snap.Seed,
		}
		if s.owns(req.Vertex) && int(req.Vertex) < len(snap.Ranks) {
			resp.Owned = true
			resp.Rank = snap.Ranks[req.Vertex]
		}
		return resp
	case opStatus:
		idx, _ := s.track()
		resp := response{
			V: api.Version, Shard: s.id,
			OwnedCount: len(s.owned), Shards: s.shards,
		}
		if cur := idx.snap; cur != nil {
			resp.Epoch, resp.Engine, resp.Seed = cur.Epoch, cur.Engine, cur.Seed
			resp.SnapshotAge = time.Since(cur.BuiltAt).Seconds()
		}
		return resp
	}
	return errResponse(s.id, api.CodeBadRequest, "unknown op %q", req.Op)
}

// ServeConn answers frames on one connection until it closes. The
// caller owns the connection's lifetime; a decode failure terminates
// the connection (the peer will redial) rather than risking a
// desynchronized frame stream. A frame of another wire version that
// decodes is answered version_mismatch by answer, like any other.
func (s *ShardServer) ServeConn(conn net.Conn) error {
	br := bufio.NewReader(conn)
	var frame frameBuf
	var req request
	for {
		n, err := frame.read(br, &req)
		s.bytesRead.Add(uint64(n))
		switch {
		case errors.Is(err, io.EOF):
			return nil
		case err != nil:
			return err
		}
		resp := s.handle(&req)
		n, err = frame.write(conn, &resp)
		s.bytesWrite.Add(uint64(n))
		if err != nil {
			return err
		}
	}
}

// Serve accepts connections on ln until ctx is cancelled, answering
// each on its own goroutine. It returns nil on a ctx-triggered stop.
func (s *ShardServer) Serve(ctx context.Context, ln net.Listener) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go func() {
			defer conn.Close()
			s.ServeConn(conn) //nolint:errcheck // per-conn errors end that conn only
		}()
	}
}
