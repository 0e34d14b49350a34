// Command riskserved serves the reproduction's simulation as an online
// utility-computing daemon: clients create deterministic simulation
// sessions, submit jobs with QoS terms one request at a time, and read
// admission decisions, price quotes, live objective reports, and the
// session's canonical journal back over HTTP.
//
//	POST   /v1/sessions                create a session (policy, model, machine, faults)
//	POST   /v1/sessions/{id}/jobs      submit a job; returns admission + quote
//	GET    /v1/sessions/{id}/report    live (or final) objective report + risk scores
//	GET    /v1/sessions/{id}/journal   the session's JSONL journal
//	POST   /v1/sessions/{id}/finalize  drain the session and fix the final report
//	DELETE /v1/sessions/{id}           finalize, return the final report, evict
//	GET    /v1/risk                    streaming-risk snapshot (per session/policy/cluster/global)
//	GET    /v1/risk/stream             live risk deltas over SSE (riskwatch consumes this)
//	GET    /healthz                    liveness + session count
//	GET    /debug/vars                 expvar counters
//	GET    /debug/pprof/...            pprof handlers
//
// Sessions advance in virtual time only; a scripted request sequence is
// bit-for-bit identical to the equivalent offline batch run. SIGINT or
// SIGTERM drains gracefully: in-flight requests finish within
// -drain-timeout before the process exits.
//
// With -control-url the daemon runs as a fleet worker: it registers
// itself with the riskctl control plane on startup (under -name, at
// -advertise or its bound address) and deregisters on graceful shutdown,
// handing its sessions to the rest of the fleet via journal replay.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/control"
)

func main() {
	var (
		addr          = flag.String("addr", "localhost:8080", "listen address")
		maxSessions   = flag.Int("max-sessions", 1024, "maximum live sessions; creates beyond it get 503")
		maxConcurrent = flag.Int("max-concurrent", 0, "maximum in-flight /v1 requests (0 = 4×GOMAXPROCS); excess load gets 503 + Retry-After")
		idleTimeout   = flag.Duration("idle-timeout", 30*time.Minute, "evict sessions untouched this long")
		sweepInterval = flag.Duration("sweep-interval", time.Minute, "idle-eviction sweep period")
		drainTimeout  = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown window after SIGINT/SIGTERM")
		controlURL    = flag.String("control-url", "", "riskctl control-plane base URL; when set, register as a fleet worker")
		name          = flag.String("name", "", "worker name for control-plane registration (default: the bound address)")
		advertise     = flag.String("advertise", "", "URL the control plane should reach this worker at (default: http://<bound address>)")
		riskWindow    = flag.Int("risk-window", 0, "streaming-risk sliding-window size in decisions (0 = default)")
		riskSubs      = flag.Int("max-risk-subscribers", 0, "maximum concurrent /v1/risk/stream subscribers (0 = default)")
	)
	flag.Parse()
	cfg := serve.Config{
		MaxSessions:        *maxSessions,
		MaxConcurrent:      *maxConcurrent,
		IdleTimeout:        *idleTimeout,
		SweepInterval:      *sweepInterval,
		RiskWindow:         *riskWindow,
		MaxRiskSubscribers: *riskSubs,
	}
	fleet := fleetConfig{ControlURL: *controlURL, Name: *name, Advertise: *advertise}
	if err := run(context.Background(), *addr, cfg, fleet, *drainTimeout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "riskserved:", err)
		os.Exit(1)
	}
}

// fleetConfig is the optional control-plane attachment: when ControlURL
// is set the worker announces itself on startup and withdraws on
// graceful shutdown.
type fleetConfig struct {
	ControlURL string
	Name       string
	Advertise  string
}

// register announces the worker to the control plane. The returned
// deregister function is best-effort: a control plane that is itself
// gone must not block this worker's shutdown.
func (f fleetConfig) register(bound net.Addr, logw io.Writer) (func(), error) {
	if f.ControlURL == "" {
		return func() {}, nil
	}
	name, adv := f.Name, f.Advertise
	if adv == "" {
		adv = "http://" + bound.String()
	}
	if name == "" {
		name = bound.String()
	}
	body, err := json.Marshal(control.RegisterWorkerRequest{Name: name, URL: adv})
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(f.ControlURL+"/control/v1/workers", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("registering with control plane: %w", err)
	}
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return nil, fmt.Errorf("registering with control plane: status %d: %s", resp.StatusCode, msg)
	}
	fmt.Fprintf(logw, "riskserved: registered with %s as %q (%s)\n", f.ControlURL, name, adv)
	return func() {
		req, err := http.NewRequest(http.MethodDelete, f.ControlURL+"/control/v1/workers/"+name, nil)
		if err != nil {
			return
		}
		resp, err := client.Do(req)
		if err != nil {
			fmt.Fprintf(logw, "riskserved: deregistering: %v\n", err)
			return
		}
		resp.Body.Close()
		fmt.Fprintf(logw, "riskserved: deregistered %q\n", name)
	}, nil
}

// run starts the daemon and blocks until the context is cancelled, a
// SIGINT/SIGTERM arrives, or the listener fails. ready, when non-nil,
// receives the bound address once the server is listening — tests listen
// on :0 and read the port from it.
func run(ctx context.Context, addr string, cfg serve.Config, fleet fleetConfig, drainTimeout time.Duration, logw io.Writer, ready chan<- string) error {
	srv := serve.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	go srv.RunSweeper(ctx)

	hs := serve.NewHTTPServer(srv.Handler())
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintf(logw, "riskserved: listening on %s\n", ln.Addr())
	deregister, err := fleet.register(ln.Addr(), logw)
	if err != nil {
		hs.Close()
		<-errc
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Withdraw from the fleet while still serving: the control plane
		// evacuates this worker's sessions over the release endpoint, so
		// registration must end before the listener does.
		deregister()
		fmt.Fprintf(logw, "riskserved: draining (%d live sessions, up to %v)\n", srv.Sessions(), drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(sctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintln(logw, "riskserved: drained")
		return nil
	}
}
