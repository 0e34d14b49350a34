package serve

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/economy"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/risk"
	"repro/internal/scheduler"
	"repro/internal/streamrisk"
	"repro/internal/workload"
)

// Config parameterizes the daemon's operator-facing limits.
type Config struct {
	// MaxSessions caps live sessions; creates beyond it are shed with 503
	// (default 1024).
	MaxSessions int
	// MaxConcurrent bounds in-flight /v1 requests; excess load is shed with
	// 503 + Retry-After instead of queueing without bound (default
	// 4×GOMAXPROCS).
	MaxConcurrent int
	// IdleTimeout is how long a session may go untouched before the sweeper
	// evicts it (default 30m).
	IdleTimeout time.Duration
	// SweepInterval is the sweeper's period (default 1m).
	SweepInterval time.Duration
	// Now overrides the wall clock for tests. Operator accounting only —
	// simulations run in virtual time regardless.
	Now func() time.Time
	// RiskWindow is the streaming risk engine's sliding-window size in
	// decisions (streamrisk.DefaultWindow if 0).
	RiskWindow int
	// MaxRiskSubscribers bounds concurrent /v1/risk/stream subscribers
	// (streamrisk.DefaultMaxSubscribers if 0).
	MaxRiskSubscribers int
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4 * runtime.GOMAXPROCS(0)
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Minute
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = time.Minute
	}
	return c
}

// Server is the HTTP service: the session registry, the admission
// limiter, and the route table. The same Server is both the standalone
// riskserved daemon and the worker half of the control-plane/worker split
// — the /worker/v1 routes (session import, release, drain) are the
// migration surface the control plane drives.
type Server struct {
	cfg      Config
	store    *store
	sem      chan struct{}
	vars     *counters
	mux      *http.ServeMux
	stream   *streamrisk.Engine
	draining atomic.Bool
}

// New builds a Server with its routes mounted.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		store:  newStore(cfg.MaxSessions, cfg.Now),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		vars:   publishVars(),
		mux:    http.NewServeMux(),
		stream: streamrisk.NewEngine(streamrisk.Config{Window: cfg.RiskWindow, MaxSubscribers: cfg.MaxRiskSubscribers}),
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	s.mux.Handle("POST /v1/sessions", s.limited(s.handleCreate))
	s.mux.Handle("POST /v1/sessions/{id}/jobs", s.limited(s.handleSubmit))
	s.mux.Handle("GET /v1/sessions/{id}/report", s.limited(s.handleReport))
	s.mux.Handle("GET /v1/sessions/{id}/journal", s.limited(s.handleJournal))
	s.mux.Handle("POST /v1/sessions/{id}/finalize", s.limited(s.handleFinalize))
	s.mux.Handle("DELETE /v1/sessions/{id}", s.limited(s.handleDelete))
	s.mux.Handle("POST /worker/v1/sessions/import", s.limited(s.handleImport))
	s.mux.Handle("POST /worker/v1/sessions/{id}/release", s.limited(s.handleRelease))
	s.mux.HandleFunc("POST /worker/v1/drain", s.handleDrain)
	s.mux.Handle("GET /v1/risk", s.limited(streamrisk.SnapshotHandler(s.stream)))
	// The SSE route bypasses the request limiter: subscriptions are
	// long-lived and would pin semaphore slots; the engine bounds them with
	// MaxRiskSubscribers instead, and a slow consumer only ever drops its
	// own deltas.
	s.mux.Handle("GET /v1/risk/stream", streamrisk.StreamHandler(s.stream))
	return s
}

// Risk exposes the streaming risk engine (riskload probes and tests
// subscribe directly; HTTP consumers use /v1/risk and /v1/risk/stream).
func (s *Server) Risk() *streamrisk.Engine { return s.stream }

// Handler returns the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Connection timeouts of the service plane's daemons (riskserved and
// riskctl). ReadHeaderTimeout disconnects a client that trickles its
// request head; IdleTimeout closes keep-alive connections nobody reuses.
// There is deliberately no WriteTimeout: it would cut /v1/risk/stream,
// whose response lasts as long as its subscriber stays.
const (
	ReadHeaderTimeout = 3 * time.Second
	IdleTimeout       = 2 * time.Minute
)

// NewHTTPServer wraps a daemon's root handler in an http.Server carrying
// the connection timeouts above.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: ReadHeaderTimeout, IdleTimeout: IdleTimeout}
}

// Sessions returns the live session count.
func (s *Server) Sessions() int { return s.store.size() }

// SweepIdle evicts sessions idle past the configured timeout, returning
// the evicted IDs.
func (s *Server) SweepIdle() []string {
	evicted := s.store.sweepIdle(s.cfg.IdleTimeout)
	s.vars.sessionsEvicted.Add(int64(len(evicted)))
	for _, id := range evicted {
		s.stream.ForgetSession(id)
	}
	return evicted
}

// RunSweeper periodically sweeps idle sessions until ctx is cancelled.
func (s *Server) RunSweeper(ctx context.Context) {
	t := time.NewTicker(s.cfg.SweepInterval) //lint:allow wallclock — idle eviction runs on operator time, never simulation time
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.SweepIdle()
		}
	}
}

// limited is the bounded-concurrency admission gate around the /v1 routes:
// a full semaphore sheds the request with 503 + Retry-After rather than
// letting unbounded requests pile onto session locks.
func (s *Server) limited(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
			h(w, r)
		default:
			s.vars.requestsShed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "server at its concurrency limit; retry shortly")
		}
	})
}

// Draining reports whether the worker has stopped accepting new sessions.
func (s *Server) Draining() bool { return s.draining.Load() }

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "ok",
		Sessions:    s.store.size(),
		MaxSessions: s.cfg.MaxSessions,
		Draining:    s.draining.Load(),
	})
}

// sessionParams is the resolved parameterization shared by the create
// handler and the import replay path.
type sessionParams struct {
	Policy, Model  string
	Nodes          int
	BasePrice      float64
	Seed           int64
	FaultIntensity string
	FaultHorizon   float64
}

// maxNodes caps a session's machine, for create requests and imported
// journal headers alike: the worker allocates per-node state up front, so
// an unbounded node count lets one request exhaust its memory. 4096 is 32×
// the paper's 128-node machine.
const maxNodes = 4096

// buildDriver validates the parameters and constructs the step-driven
// simulation plus the journal header describing it. Defaults (128 nodes,
// the paper's base price) are applied here so the create and import paths
// resolve identically.
func buildDriver(p sessionParams) (*scheduler.Session, obs.SessionHeader, error) {
	m, err := registry.ParseModel(p.Model)
	if err != nil {
		return nil, obs.SessionHeader{}, err
	}
	spec, err := registry.PolicySpec(p.Policy, m)
	if err != nil {
		return nil, obs.SessionHeader{}, err
	}
	intensity, err := faults.ParseIntensity(p.FaultIntensity)
	if err != nil {
		return nil, obs.SessionHeader{}, err
	}
	cfg := scheduler.RunConfig{Nodes: p.Nodes, Model: m, BasePrice: p.BasePrice}
	if cfg.Nodes == 0 {
		cfg.Nodes = 128
	}
	if cfg.Nodes > maxNodes {
		return nil, obs.SessionHeader{}, fmt.Errorf("nodes %d above the %d-node ceiling", cfg.Nodes, maxNodes)
	}
	if cfg.BasePrice == 0 {
		cfg.BasePrice = economy.DefaultBasePrice
	}
	header := obs.SessionHeader{
		Policy:    spec.Name,
		Model:     m.String(),
		Nodes:     cfg.Nodes,
		BasePrice: cfg.BasePrice,
	}
	if intensity.Enabled() {
		if p.FaultHorizon <= 0 {
			return nil, obs.SessionHeader{}, fmt.Errorf(
				"fault intensity %s requires a positive fault_horizon (an online session cannot infer its workload's extent)", intensity)
		}
		f := intensity.Config(p.Seed, p.FaultHorizon)
		cfg.Faults = &f
		header.Seed = p.Seed
		header.FaultIntensity = intensity.String()
		header.FaultHorizon = p.FaultHorizon
	} else if p.FaultHorizon != 0 {
		return nil, obs.SessionHeader{}, fmt.Errorf("fault_horizon set without a fault intensity")
	}
	driver, err := scheduler.NewSession(spec.New, cfg)
	if err != nil {
		return nil, obs.SessionHeader{}, err
	}
	return driver, header, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "worker is draining; no new sessions")
		return
	}
	var req CreateSessionRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	driver, header, err := buildDriver(sessionParams{
		Policy: req.Policy, Model: req.Model, Nodes: req.Nodes, BasePrice: req.BasePrice,
		Seed: req.Seed, FaultIntensity: req.FaultIntensity, FaultHorizon: req.FaultHorizon,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	header.ID = req.ID
	if header.ID == "" {
		header.ID = s.store.allocID()
	}
	journal := obs.NewSessionJournal(header)
	journal.Observe(s.stream)
	sess, err := s.store.insert(header.ID, driver, journal, 1, false)
	if err != nil {
		switch {
		case errors.Is(err, errFull):
			s.vars.requestsShed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "session registry full (%d live)", s.cfg.MaxSessions)
		case errors.Is(err, errExists):
			writeError(w, http.StatusConflict, "session %q already live on this worker", header.ID)
		default:
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.vars.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, CreateSessionResponse{
		ID: sess.id, Policy: header.Policy, Model: header.Model,
		Nodes: header.Nodes, BasePrice: header.BasePrice,
	})
}

// getSession resolves {id}, writing the 404 itself when absent. A true
// return carries an in-flight mark; the caller must release it (see
// store.release) once the request is done.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	sess, ok := s.store.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
	}
	return sess, ok
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	defer s.store.release(sess)
	var req SubmitJobRequest
	if err := readJSON(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Submit != 0 && req.Advance != 0 {
		writeError(w, http.StatusBadRequest, "set submit or advance, not both")
		return
	}
	if req.Submit < 0 || req.Advance < 0 {
		writeError(w, http.StatusBadRequest, "submit and advance must be non-negative")
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	j := &workload.Job{
		ID: req.ID, Submit: req.Submit, Runtime: req.Runtime, Estimate: req.Estimate,
		Procs: req.Procs, Deadline: req.Deadline, Budget: req.Budget, PenaltyRate: req.PenaltyRate,
		HighUrgency: req.HighUrgency,
	}
	if req.Advance != 0 {
		j.Submit = sess.driver.Now() + req.Advance
	}
	if j.ID == 0 {
		j.ID = sess.nextJob
	}
	if j.Estimate == 0 {
		j.Estimate = j.Runtime
	}
	if j.Procs == 0 {
		j.Procs = 1
	}
	d, err := sess.driver.Submit(j)
	if err != nil {
		status := http.StatusBadRequest
		if sess.driver.Finalized() {
			status = http.StatusConflict
		}
		writeError(w, status, "%v", err)
		return
	}
	if j.ID >= sess.nextJob {
		sess.nextJob = j.ID + 1
	}
	sess.journal.Decision(obs.SessionDecision{
		Job: j.ID, Submit: j.Submit, Runtime: j.Runtime, Estimate: j.Estimate,
		Procs: j.Procs, Deadline: j.Deadline, Budget: j.Budget, PenaltyRate: j.PenaltyRate,
		HighUrgency: j.HighUrgency,
		Admission:   d.Admission.String(), Quote: d.Quote,
	})
	s.vars.jobsSubmitted.Add(1)
	writeJSON(w, http.StatusOK, SubmitJobResponse{
		Job: j.ID, Admission: d.Admission.String(), Quote: d.Quote, Now: sess.driver.Now(),
	})
}

// riskScores extracts the raw per-objective risk-analysis inputs from a
// report. JSON object keys marshal sorted, so the rendering is
// deterministic.
func riskScores(rep metrics.Report) map[string]float64 {
	scores := make(map[string]float64, len(risk.AllObjectives))
	for _, o := range risk.AllObjectives {
		scores[o.String()] = risk.Raw(o, rep)
	}
	return scores
}

func (s *Server) reportResponse(sess *session, rep metrics.Report) ReportResponse {
	return ReportResponse{
		ID: sess.id, Policy: sess.driver.PolicyName(), Finalized: sess.driver.Finalized(),
		Report: rep, Risk: riskScores(rep),
	}
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	defer s.store.release(sess)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	writeJSON(w, http.StatusOK, s.reportResponse(sess, sess.driver.Snapshot()))
}

func (s *Server) handleJournal(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	defer s.store.release(sess)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if err := sess.journal.Err(); err != nil {
		writeError(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(sess.journal.Bytes()) //lint:allow errignore — headers are sent; nothing useful can follow a mid-body failure
}

// finalizeLocked drains the session and appends the journal's final line
// exactly once. Callers hold sess.mu.
func finalizeLocked(sess *session) metrics.Report {
	rep := sess.driver.Finalize()
	if !sess.finalLogged {
		sess.journal.Final(rep)
		sess.finalLogged = true
	}
	return rep
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	defer s.store.release(sess)
	sess.mu.Lock()
	defer sess.mu.Unlock()
	writeJSON(w, http.StatusOK, s.reportResponse(sess, finalizeLocked(sess)))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	defer s.store.release(sess)
	sess.mu.Lock()
	rep := finalizeLocked(sess)
	resp := s.reportResponse(sess, rep)
	sess.mu.Unlock()
	if s.store.remove(sess.id) {
		s.vars.sessionsEvicted.Add(1)
		s.stream.ForgetSession(sess.id)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleImport rebuilds a migrated session from its journal bytes by
// deterministic replay (see ImportSession). 201 echoes the session ID the
// journal header carried.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "worker is draining; no session imports")
		return
	}
	journal, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxJournalBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading journal body: %v", err)
		return
	}
	id, err := s.ImportSession(journal)
	if err != nil {
		switch {
		case errors.Is(err, errFull):
			s.vars.requestsShed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "session registry full (%d live)", s.cfg.MaxSessions)
		case errors.Is(err, errExists):
			writeError(w, http.StatusConflict, "%v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.vars.sessionsImported.Add(1)
	writeJSON(w, http.StatusCreated, ImportSessionResponse{ID: id})
}

// handleRelease hands a session off for migration: the journal bytes are
// returned as the response body and the session is evicted WITHOUT being
// finalized — the importing worker resumes it live, mid-stream. This is
// the cooperative half of migration; crash recovery replays the control
// plane's shadow journal instead.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	defer s.store.release(sess)
	sess.mu.Lock()
	if err := sess.journal.Err(); err != nil {
		sess.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	journal := append([]byte(nil), sess.journal.Bytes()...)
	sess.mu.Unlock()
	if !s.store.remove(sess.id) {
		// A concurrent delete or sweep won the race; the caller must not
		// import a journal this worker no longer owns.
		writeError(w, http.StatusNotFound, "session %q already gone", sess.id)
		return
	}
	s.vars.sessionsReleased.Add(1)
	s.stream.ForgetSession(sess.id)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(journal) //lint:allow errignore — headers are sent; nothing useful can follow a mid-body failure
}

// handleDrain flips the worker into draining mode: no new sessions, no
// imports; live sessions keep serving until the control plane releases
// them. Draining is one-way for a worker process — the control plane
// deregisters it afterwards.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.draining.Store(true)
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:      "draining",
		Sessions:    s.store.size(),
		MaxSessions: s.cfg.MaxSessions,
		Draining:    true,
	})
}
