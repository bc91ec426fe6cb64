package router

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"time"

	"repro/internal/obs"
)

// DialFunc opens one connection to a shard. TCP deployments use
// DialTCP; tests return one end of a net.Pipe whose other end is
// handled by ShardServer.ServeConn.
type DialFunc func() (net.Conn, error)

// DialTCP returns a DialFunc for a live shard address.
func DialTCP(addr string) DialFunc {
	return func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, 2*time.Second)
	}
}

// PipeDialer returns a DialFunc that connects straight to srv through
// an in-memory net.Pipe — the deterministic in-process transport the
// router tests run on.
func PipeDialer(srv *ShardServer) DialFunc {
	return func() (net.Conn, error) {
		c1, c2 := net.Pipe()
		go func() {
			defer c2.Close()
			srv.ServeConn(c2) //nolint:errcheck // per-conn errors end that conn only
		}()
		return c1, nil
	}
}

// maxIdleConns bounds each shard's idle connection pool; excess
// connections close instead of accumulating.
const maxIdleConns = 16

// clientConn is one pooled shard connection together with its read
// buffer and frame buffer, so an RPC on a warm connection allocates
// neither.
type clientConn struct {
	net.Conn
	br    *bufio.Reader
	frame frameBuf
}

// ShardClient is the router's handle on one shard: a small pool of
// persistent connections, a per-request deadline, one retry on a fresh
// connection after a transport error, and byte counters for every
// frame crossing the wire.
type ShardClient struct {
	id      int
	addr    string
	dial    DialFunc
	timeout time.Duration

	idle chan *clientConn

	// Free-standing obs instruments; Router.New registers them on its
	// registry via Instrument, and Router.NetworkStats sums them.
	sent    obs.Counter
	recv    obs.Counter
	calls   obs.Counter
	retries obs.Counter
	errs    obs.Counter
	rpcLat  obs.Latency
}

// NewShardClient builds a client for shard id reachable through dial.
// addr is informational (health and stats bodies). timeout bounds each
// RPC round trip; 0 selects 2s.
func NewShardClient(id int, addr string, dial DialFunc, timeout time.Duration) *ShardClient {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return &ShardClient{
		id: id, addr: addr, dial: dial, timeout: timeout,
		idle: make(chan *clientConn, maxIdleConns),
	}
}

// ID returns the shard id this client talks to.
func (c *ShardClient) ID() int { return c.id }

// Addr returns the shard's display address.
func (c *ShardClient) Addr() string { return c.addr }

// BytesSent and BytesRecv return the total wire bytes this client has
// moved (length prefixes included).
func (c *ShardClient) BytesSent() int64 { return int64(c.sent.Value()) }
func (c *ShardClient) BytesRecv() int64 { return int64(c.recv.Value()) }

// Retries returns how many RPCs needed a second attempt.
func (c *ShardClient) Retries() uint64 { return c.retries.Value() }

// Instrument registers the client's instruments on reg under the
// router_shard_* names, labeled with the shard id. Call at most once
// per registry (Router.New does).
func (c *ShardClient) Instrument(reg *obs.Registry) {
	shard := obs.Labels{"shard": strconv.Itoa(c.id)}
	reg.RegisterCounter("router_shard_rpc_total",
		"RPCs issued to this shard (retries not included).", shard, &c.calls)
	reg.RegisterCounter("router_shard_rpc_retries_total",
		"RPCs that needed a second attempt after a transport error.", shard, &c.retries)
	reg.RegisterCounter("router_shard_rpc_errors_total",
		"RPCs that failed both attempts.", shard, &c.errs)
	reg.RegisterLatency("router_shard_rpc_seconds",
		"Per-shard RPC round-trip latency (retries included).", shard, &c.rpcLat)
	reg.RegisterCounter("router_shard_bytes_sent_total",
		"Wire bytes sent to this shard (length prefixes included).", shard, &c.sent)
	reg.RegisterCounter("router_shard_bytes_recv_total",
		"Wire bytes received from this shard (length prefixes included).", shard, &c.recv)
}

// Close drains the idle pool. In-flight calls finish on their own
// connections.
func (c *ShardClient) Close() {
	for {
		select {
		case conn := <-c.idle:
			conn.Close()
		default:
			return
		}
	}
}

// get checks out an idle connection or dials a fresh one.
func (c *ShardClient) get() (*clientConn, error) {
	select {
	case conn := <-c.idle:
		return conn, nil
	default:
		conn, err := c.dial()
		if err != nil {
			return nil, err
		}
		return &clientConn{Conn: conn, br: bufio.NewReader(conn)}, nil
	}
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full).
func (c *ShardClient) put(conn *clientConn) {
	select {
	case c.idle <- conn:
	default:
		conn.Close()
	}
}

// call performs one RPC: request out, response in, deadline-bounded,
// with one retry on a fresh connection after any transport error (a
// pooled connection may have died while idle, so the first failure is
// ambiguous; the second is real).
func (c *ShardClient) call(req *request) (response, error) {
	c.calls.Inc()
	start := time.Now()
	defer func() { c.rpcLat.Observe(time.Since(start)) }()
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
		}
		conn, err := c.get()
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := c.roundTrip(conn, req)
		if err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		c.put(conn)
		if resp.Code == "" && resp.V != req.V {
			return response{}, fmt.Errorf("shard %d answered wire version %d, want %d", c.id, resp.V, req.V)
		}
		return resp, nil
	}
	c.errs.Inc()
	return response{}, fmt.Errorf("shard %d (%s): %w", c.id, c.addr, lastErr)
}

// roundTrip runs one request/response exchange on conn under the
// client deadline, metering both directions. On any error the caller
// closes conn and never pools it again: a short or oversized frame
// leaves bytes unread, and a frame read whole that failed to decode came
// from a peer not to be trusted with the next one.
func (c *ShardClient) roundTrip(conn *clientConn, req *request) (response, error) {
	if err := conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
		return response{}, err
	}
	n, err := conn.frame.write(conn, req)
	c.sent.Add(uint64(n))
	if err != nil {
		return response{}, err
	}
	var resp response
	n, err = conn.frame.read(conn.br, &resp)
	c.recv.Add(uint64(n))
	if err != nil {
		return response{}, err
	}
	// Clear the deadline so a pooled connection does not expire idle.
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return response{}, err
	}
	return resp, nil
}
