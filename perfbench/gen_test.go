package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGenClientCapsConnections fires four times as many concurrent
// requests as the cap allows at a slow server and counts the connections
// it accepts.
func TestGenClientCapsConnections(t *testing.T) {
	const conns = 2
	var opened, open, peak atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond) //lint:allow wallclock — a slow handler keeps requests in flight
	}))
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
			if n := open.Add(1); n > peak.Load() {
				peak.Store(n)
			}
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	srv.Start()
	defer srv.Close()
	client := newGenClient(conns)
	defer client.CloseIdleConnections()
	var wg sync.WaitGroup
	for i := 0; i < 4*conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(srv.URL)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}()
	}
	wg.Wait()
	if opened.Load() > conns || peak.Load() > conns {
		t.Fatalf("opened %d connections (peak %d), cap %d", opened.Load(), peak.Load(), conns)
	}
}
