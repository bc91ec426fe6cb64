// Command prshard is one worker of a sharded top-k PageRank cluster:
// it owns the vertices v with v % shards == shard and answers partial
// top-k/rank queries over a small length-prefixed RPC protocol, to be
// fronted by a prserve router (-shards).
//
// A shard builds nothing: it opens no graph and runs no engine. It
// serves DIR/snapshot.fws, which one builder, prserve -snapshot-dir DIR,
// persists at every publish, at the epoch the builder gave it; so the
// builder and every shard agree on epoch, engine, seed and top index
// size by construction, and the router's merged top-k is exactly the
// builder's answer. The router finds a vertex's owner by the same
// arithmetic as the shards, so the address at position i of its -shards
// list must be the process started with -shard i; /healthz reports a
// shard at the wrong position.
//
// Usage:
//
//	prserve -addr 127.0.0.1:8081 -gen twitterlike -n 50000 -refresh 1m -snapshot-dir /var/lib/fw
//	prshard -addr 127.0.0.1:9001 -shard 0 -shards 2 -snapshot-dir /var/lib/fw
//	prshard -addr 127.0.0.1:9002 -shard 1 -shards 2 -snapshot-dir /var/lib/fw
//	prserve -addr :8080 -shards 127.0.0.1:9001,127.0.0.1:9002
//
// The shard looks at the file once a second. It adopts a replaced file
// whose epoch is newer than the one it serves and whose vertex count is
// unchanged; any other file (an older or equal epoch, another vertex
// count, a corrupt or a missing file) is logged and ignored, and the
// current snapshot keeps serving. The shard keeps its previous snapshot
// alongside the current one, so a router can re-ask at the older epoch
// while the shards pick up a new file at slightly different times. A
// file that is missing or invalid at startup exits 1. SIGINT/SIGTERM
// shut the shard down.
//
// Observability: -metrics-addr serves the Prometheus exposition
// (shard ops, frame bytes, snapshot epoch/age) on an HTTP side
// listener, -log-requests writes one JSON line per RPC to stderr
// carrying the router-propagated request id, and -pprof-addr serves
// net/http/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/router"
	"repro/internal/serve"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stderr, nil, nil))
}

// pollInterval is how often a shard looks for a replaced snapshot file.
const pollInterval = time.Second

// options are prshard's flags.
type options struct {
	addr, snapDir, metrics, pprof string
	shard, shards                 int
	logRequests                   bool
}

// newFlags declares prshard's flag set, writing usage to stderr.
func newFlags(stderr io.Writer) (*flag.FlagSet, *options) {
	o := &options{}
	fs := flag.NewFlagSet("prshard", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:9001", "RPC listen address")
	fs.IntVar(&o.shard, "shard", 0, "this shard's id, 0-based")
	fs.IntVar(&o.shards, "shards", 1, "total shard count in the cluster")
	fs.StringVar(&o.snapDir, "snapshot-dir", "", "serve the snapshot a builder prserve -snapshot-dir persists in this directory, and every newer epoch of it")
	fs.StringVar(&o.metrics, "metrics-addr", "", "serve the Prometheus exposition on this HTTP side address (e.g. 127.0.0.1:9101)")
	fs.BoolVar(&o.logRequests, "log-requests", false, "write one JSON line per shard RPC to stderr (rid, op, status, duration)")
	fs.StringVar(&o.pprof, "pprof-addr", "", "serve net/http/pprof on this side address (e.g. 127.0.0.1:6061)")
	return fs, o
}

// run is the testable CLI body: 0 after a graceful shutdown, 1 when
// the snapshot cannot be served, 2 on usage errors. Log lines go to
// stderr. onReady, when non-nil, receives the bound RPC listen address
// once the shard is serving; onMetrics likewise receives the bound
// -metrics-addr address.
func run(ctx context.Context, args []string, stderr io.Writer, onReady, onMetrics func(addr string)) int {
	fs, o := newFlags(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "prshard: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if o.shards < 1 || o.shard < 0 || o.shard >= o.shards {
		return usage("-shard %d out of range for -shards %d", o.shard, o.shards)
	}
	if o.snapDir == "" {
		return usage("-snapshot-dir is required: the directory a builder prserve -snapshot-dir persists to")
	}
	lg := log.New(stderr, "prshard: ", log.LstdFlags|log.Lmsgprefix)

	store := serve.NewStore()
	f := &follower{path: serve.SnapshotPath(o.snapDir), store: store}
	snap, err := f.poll()
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	owned := router.Stride(len(snap.Ranks), o.shards, o.shard)
	lg.Printf("shard %d/%d owns %d of %d vertices; serving %s epoch %d (%s, seed %d)",
		o.shard, o.shards, len(owned), len(snap.Ranks), f.path, snap.Epoch, snap.Engine, snap.Seed)

	ctx, cancel := context.WithCancel(ctx)
	polling := make(chan struct{})
	go func() {
		defer close(polling)
		f.follow(ctx, lg)
	}()
	defer func() {
		cancel()
		<-polling
	}()

	reg := obs.NewRegistry()
	srv := router.NewShardServer(o.shard, o.shards, owned, store)
	srv.Instrument(reg)
	if o.logRequests {
		srv.SetRequestLog(obs.NewLogger(stderr))
	}
	if o.metrics != "" {
		mln, err := net.Listen("tcp", o.metrics)
		if err != nil {
			fmt.Fprintf(stderr, "prshard: metrics listener: %v\n", err)
			return 1
		}
		mmux := http.NewServeMux()
		mmux.Handle("/metrics", reg.Handler())
		lg.Printf("serving /metrics on %s", mln.Addr())
		if onMetrics != nil {
			onMetrics(mln.Addr().String())
		}
		go func() {
			if err := obs.ServeListener(ctx, mln, mmux); err != nil {
				lg.Printf("metrics listener: %v", err)
			}
		}()
	}
	if o.pprof != "" {
		lg.Printf("serving pprof on %s", o.pprof)
		go func() {
			// nil handler would also work: the pprof import registers
			// itself on http.DefaultServeMux.
			if err := obs.ListenAndServe(ctx, o.pprof, http.DefaultServeMux); err != nil {
				lg.Printf("pprof listener: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	lg.Printf("serving shard RPC on %s", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}
	if err := srv.Serve(ctx, ln); err != nil {
		fmt.Fprintf(stderr, "prshard: %v\n", err)
		return 1
	}
	lg.Printf("graceful shutdown after %d queries", srv.Queries())
	return 0
}

// follower publishes the snapshot file a builder persists to its store:
// the first file it reads, then every replacement with a newer epoch
// and the same vertex count.
type follower struct {
	path  string
	store *serve.Store
	last  os.FileInfo // the file read last, adopted or not
}

// poll reads the file unless it is the one read last, and publishes it
// with the epoch it carries. It returns the adopted snapshot, nil when
// the file is unchanged, or why the file was not adopted.
func (f *follower) poll() (*serve.Snapshot, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	fi, err := file.Stat()
	if err != nil {
		return nil, err
	}
	// SaveSnapshot renames a new file into place; the time and size
	// also catch a reused inode or a file rewritten in place.
	if l := f.last; l != nil && os.SameFile(fi, l) && fi.ModTime().Equal(l.ModTime()) && fi.Size() == l.Size() {
		return nil, nil
	}
	f.last = fi
	snap, err := serve.ReadSnapshot(file, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.path, err)
	}
	if cur := f.store.Current(); cur != nil {
		switch {
		case snap.Epoch <= cur.Epoch:
			return nil, fmt.Errorf("%s: epoch %d is not newer than the served epoch %d", f.path, snap.Epoch, cur.Epoch)
		case len(snap.Ranks) != len(cur.Ranks):
			return nil, fmt.Errorf("%s: epoch %d has %d vertices, the served epoch %d has %d",
				f.path, snap.Epoch, len(snap.Ranks), cur.Epoch, len(cur.Ranks))
		}
	}
	return f.store.Restore(snap), nil
}

// follow polls every pollInterval until ctx is done, logging each
// adopted epoch and each distinct reason a file was not adopted.
func (f *follower) follow(ctx context.Context, lg *log.Logger) {
	tick := time.NewTicker(pollInterval)
	defer tick.Stop()
	lastErr := ""
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		snap, err := f.poll()
		if err != nil {
			if msg := err.Error(); msg != lastErr {
				lg.Printf("ignoring snapshot, still serving epoch %d: %s", f.store.Current().Epoch, msg)
				lastErr = msg
			}
			continue
		}
		lastErr = ""
		if snap != nil {
			lg.Printf("adopted epoch %d (%s, seed %d)", snap.Epoch, snap.Engine, snap.Seed)
		}
	}
}
