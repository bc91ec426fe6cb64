package obs

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"testing"
	"time"
)

// TestServeListenerDropsStalledHeader: a peer that starts a request
// header and never finishes it is disconnected once readHeaderTimeout
// has passed, and meanwhile — and afterwards — a healthy client on the
// same listener is answered on one keep-alive connection.
func TestServeListenerDropsStalledHeader(t *testing.T) {
	t.Parallel()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- ServeListener(ctx, ln, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			io.WriteString(w, "ok\n")
		}))
	}()
	defer func() {
		stop()
		if err := <-served; err != nil {
			t.Errorf("ServeListener returned %v", err)
		}
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /v1/topk HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// dropped receives nil once the server has closed the stalled
	// connection (whatever it chose to say first), or the read's error.
	dropped := make(chan error, 1)
	go func() {
		stalled.SetReadDeadline(time.Now().Add(readHeaderTimeout + 10*time.Second))
		_, err := io.Copy(io.Discard, stalled)
		dropped <- err
	}()

	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	requests := 0
	get := func() {
		t.Helper()
		var reused bool
		trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace), http.MethodGet, "http://"+ln.Addr().String()+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("healthy request %d: %v", requests, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
			t.Fatalf("healthy request %d: status %d body %q", requests, resp.StatusCode, body)
		}
		if requests > 0 && !reused {
			t.Errorf("healthy request %d opened a new connection: the keep-alive one was closed under it", requests)
		}
		requests++
	}

	tick := time.NewTicker(readHeaderTimeout / 10)
	defer tick.Stop()
	for waiting := true; waiting; {
		select {
		case err := <-dropped:
			if err != nil {
				t.Fatalf("the stalled connection was still open %v after its first byte: %v", readHeaderTimeout+10*time.Second, err)
			}
			waiting = false
		case <-tick.C:
			get()
		}
	}
	get()
	if requests < 5 {
		t.Errorf("only %d healthy requests were answered while the stalled connection was held, want the full %v of them", requests, readHeaderTimeout)
	}
}
