package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/control"
)

var update = flag.Bool("update", false, "rewrite golden files")

// startDaemon runs the daemon on a loopback port until ctx is cancelled,
// returning its address and the channel run's result arrives on.
func startDaemon(t *testing.T, ctx context.Context, cfg serve.Config, fleet fleetConfig, drainTimeout time.Duration) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, "127.0.0.1:0", cfg, fleet, drainTimeout, io.Discard, ready)
	}()
	select {
	case addr := <-ready:
		return addr, errc
	case err := <-errc:
		t.Fatal(err)
	//lint:allow wallclock — liveness timeout for a real daemon under test, not simulation time
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not come up")
	}
	return "", nil
}

// post sends a JSON body and decodes the JSON response.
func post(t *testing.T, url string, body, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, data)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, data, err)
		}
	}
	return resp
}

// TestServeSmoke boots the real daemon on a loopback port, replays a
// scripted session over HTTP, and compares the session journal byte for
// byte against the committed golden — the end-to-end determinism check
// `make serve-smoke` runs in CI. It finishes by exercising the graceful
// drain path.
func TestServeSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startDaemon(t, ctx, serve.Config{}, fleetConfig{}, 5*time.Second)
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v / %v", resp, err)
	}
	resp.Body.Close()

	// The scripted session: Libra+$ on a small machine; a feasible job, an
	// over-budget rejection, and a second acceptance at a later instant.
	var cr serve.CreateSessionResponse
	post(t, base+"/v1/sessions", serve.CreateSessionRequest{Policy: "Libra+$", Model: "commodity", Nodes: 8}, &cr)
	jobs := base + "/v1/sessions/" + cr.ID + "/jobs"
	var d1, d2, d3 serve.SubmitJobResponse
	post(t, jobs, serve.SubmitJobRequest{Submit: 0, Runtime: 100, Deadline: 200, Budget: 1000}, &d1)
	post(t, jobs, serve.SubmitJobRequest{Submit: 5, Runtime: 100, Deadline: 200, Budget: 0.01}, &d2)
	post(t, jobs, serve.SubmitJobRequest{Submit: 50, Runtime: 40, Procs: 2, Deadline: 300, Budget: 500}, &d3)
	if d1.Admission != "accepted" || d2.Admission != "rejected" || d3.Admission != "accepted" {
		t.Fatalf("admissions: %q, %q, %q", d1.Admission, d2.Admission, d3.Admission)
	}
	post(t, base+"/v1/sessions/"+cr.ID+"/finalize", struct{}{}, nil)

	jresp, err := http.Get(base + "/v1/sessions/" + cr.ID + "/journal")
	if err != nil {
		t.Fatal(err)
	}
	journal, err := io.ReadAll(jresp.Body)
	jresp.Body.Close()
	if err != nil || jresp.StatusCode != http.StatusOK {
		t.Fatalf("journal: status %d, err %v", jresp.StatusCode, err)
	}

	golden := filepath.Join("testdata", "smoke_journal.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, journal, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(journal, want) {
		t.Errorf("smoke journal diverged from golden:\ngot:\n%s\nwant:\n%s", journal, want)
	}

	// Graceful drain: cancelling the context must return nil after the
	// in-flight work completes.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	//lint:allow wallclock — liveness timeout for a real daemon under test, not simulation time
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain")
	}
}

// In worker mode the daemon registers with the control plane on startup
// and deregisters during graceful shutdown — the fleet sees it appear
// and disappear without operator action.
func TestServeWorkerModeRegistration(t *testing.T) {
	plane := control.New(control.Config{})
	cp := httptest.NewServer(plane.Handler())
	defer cp.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fleet := fleetConfig{ControlURL: cp.URL, Name: "w-test"}
	_, errc := startDaemon(t, ctx, serve.Config{}, fleet, 5*time.Second)
	topo := plane.Topology()
	if len(topo.Workers) != 1 || topo.Workers[0].Name != "w-test" || !topo.Workers[0].Healthy {
		t.Fatalf("after startup, topology = %+v, want healthy w-test", topo.Workers)
	}

	// A session created through the plane must land on the worker.
	var cr serve.CreateSessionResponse
	post(t, cp.URL+"/v1/sessions", serve.CreateSessionRequest{Policy: "FirstReward", Model: "bid"}, &cr)
	if got := plane.Sessions(); got != 1 {
		t.Fatalf("plane routes %d sessions, want 1", got)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	//lint:allow wallclock — liveness timeout for a real daemon under test, not simulation time
	case <-time.After(10 * time.Second):
		t.Fatal("worker did not drain")
	}
	if topo := plane.Topology(); len(topo.Workers) != 0 {
		t.Errorf("after shutdown, topology = %+v, want no workers", topo.Workers)
	}
}

// A worker pointed at a dead control plane fails startup with a plain
// error instead of serving unregistered.
func TestServeWorkerModeBadControlPlane(t *testing.T) {
	cp := httptest.NewServer(http.NotFoundHandler())
	cp.Close()
	fleet := fleetConfig{ControlURL: cp.URL, Name: "w-test"}
	err := run(context.Background(), "127.0.0.1:0", serve.Config{}, fleet, time.Second, io.Discard, nil)
	if err == nil {
		t.Fatal("worker started against a dead control plane")
	}
}

// The daemon refuses a second listener on the same port with a plain
// error, not a hang.
func TestServeAddrInUse(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startDaemon(t, ctx, serve.Config{}, fleetConfig{}, time.Second)
	if err := run(ctx, addr, serve.Config{}, fleetConfig{}, time.Second, io.Discard, nil); err == nil {
		t.Fatal("second listener on the same address succeeded")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// A client that sends half a request line and then stalls is
// disconnected once the header read timeout passes, instead of holding
// its connection open forever.
func TestServeDisconnectsSlowClient(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr, errc := startDaemon(t, ctx, serve.Config{}, fleetConfig{}, time.Second)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HT"); err != nil {
		t.Fatal(err)
	}
	//lint:allow wallclock — bounds the wait for the daemon's disconnect, not simulation time
	if err := conn.SetReadDeadline(time.Now().Add(serve.ReadHeaderTimeout + 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	// The daemon may answer 408 before hanging up; only a read that
	// outlives the deadline means the connection was held open.
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("daemon kept a stalled connection open: %v", err)
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("drain: %v", err)
	}
}
