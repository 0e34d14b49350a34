package control

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/serve"
)

func (p *Plane) handleHealthz(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	workers := len(p.workers)
	sessions := len(p.routes)
	p.mu.Unlock()
	serve.WriteJSON(w, http.StatusOK, HealthResponse{Status: "ok", Workers: workers, Sessions: sessions})
}

func (p *Plane) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterWorkerRequest
	if err := serve.ReadJSON(r, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := p.Register(req.Name, req.URL); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusCreated, p.Topology())
}

func (p *Plane) handleDeregister(w http.ResponseWriter, r *http.Request) {
	if err := p.Deregister(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, p.Topology())
}

func (p *Plane) handleDrainWorker(w http.ResponseWriter, r *http.Request) {
	if err := p.DrainWorker(r.PathValue("name")); err != nil {
		serve.WriteError(w, http.StatusNotFound, "%v", err)
		return
	}
	serve.WriteJSON(w, http.StatusOK, p.Topology())
}

func (p *Plane) handleTopology(w http.ResponseWriter, r *http.Request) {
	serve.WriteJSON(w, http.StatusOK, p.Topology())
}

// handleCreate places a new session: the plane allocates the ID, the ring
// picks the owner, and the create is forwarded with the ID pinned. The
// shadow journal is seeded from the worker's own journal header so the
// plane never re-derives parameter defaults.
func (p *Plane) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req serve.CreateSessionRequest
	if err := serve.ReadJSON(r, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.ID != "" {
		serve.WriteError(w, http.StatusBadRequest, "the control plane assigns session IDs; leave id empty")
		return
	}
	id := fmt.Sprintf("s-%d", p.nextID.Add(1))
	req.ID = id
	body, err := json.Marshal(req)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	// A worker dying mid-create is survivable: mark it dead and place the
	// session on the ID's next owner.
	for attempt := 0; attempt < 3; attempt++ {
		owner := p.ownerFor(id)
		if owner == "" {
			serve.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
			return
		}
		url, ok := p.workerURL(owner)
		if !ok {
			serve.WriteError(w, http.StatusServiceUnavailable, "no healthy workers")
			return
		}
		st, out, err := p.do(http.MethodPost, url+"/v1/sessions", body)
		if err != nil {
			p.markDead(owner)
			continue
		}
		if st != http.StatusCreated {
			proxy(w, st, out)
			return
		}
		jst, jbody, jerr := p.do(http.MethodGet, url+"/v1/sessions/"+id+"/journal", nil)
		if jerr != nil {
			p.markDead(owner)
			continue
		}
		if jst != http.StatusOK {
			serve.WriteError(w, http.StatusBadGateway, "worker %s lost session %s right after create", owner, id)
			return
		}
		rec, err := obs.ParseSessionJournal(jbody)
		if err != nil {
			serve.WriteError(w, http.StatusBadGateway, "worker %s produced an unparseable journal: %v", owner, err)
			return
		}
		shadow := obs.NewSessionJournal(rec.Header)
		shadow.Observe(p.risk)
		p.mu.Lock()
		p.routes[id] = &route{id: id, worker: owner, shadow: shadow}
		p.mu.Unlock()
		p.vars.sessionsCreated.Add(1)
		proxy(w, st, out)
		return
	}
	serve.WriteError(w, http.StatusServiceUnavailable, "no worker accepted the session")
}

// routeOr404 resolves the session route or writes the 404.
func (p *Plane) routeOr404(w http.ResponseWriter, r *http.Request) *route {
	id := r.PathValue("id")
	p.mu.Lock()
	rt := p.routes[id]
	p.mu.Unlock()
	if rt == nil {
		serve.WriteError(w, http.StatusNotFound, "no session %s", id)
	}
	return rt
}

// handleSubmit forwards a job submission and appends the decision to the
// session's shadow journal — the exact line the worker journals, rebuilt
// from the request's resolved parameters and the worker's answer.
func (p *Plane) handleSubmit(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	var req serve.SubmitJobRequest
	if err := serve.ReadJSON(r, &req); err != nil {
		serve.WriteError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		serve.WriteError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, out, err := p.forward(rt, http.MethodPost, r.URL.Path, body)
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if st == http.StatusOK {
		var resp serve.SubmitJobResponse
		if err := json.Unmarshal(out, &resp); err == nil {
			rt.shadow.Decision(decisionFrom(req, resp))
			p.vars.jobsForwarded.Add(1)
		}
	}
	proxy(w, st, out)
}

// decisionFrom rebuilds the journal line a worker writes for a submission:
// the request's parameters with the worker's defaults applied (sequential
// ID and submission instant from the response, estimate defaulting to
// runtime, width to one) plus the answer.
func decisionFrom(req serve.SubmitJobRequest, resp serve.SubmitJobResponse) obs.SessionDecision {
	est := req.Estimate
	if est == 0 {
		est = req.Runtime
	}
	procs := req.Procs
	if procs == 0 {
		procs = 1
	}
	return obs.SessionDecision{
		Job: resp.Job, Submit: resp.Now, Runtime: req.Runtime, Estimate: est,
		Procs: procs, Deadline: req.Deadline, Budget: req.Budget,
		PenaltyRate: req.PenaltyRate, HighUrgency: req.HighUrgency,
		Admission: resp.Admission, Quote: resp.Quote,
	}
}

// handleProxy forwards read-only session requests (report, journal)
// verbatim.
func (p *Plane) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, out, err := p.forward(rt, r.Method, r.URL.Path, nil)
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	proxy(w, st, out)
}

// handleFinalize forwards the finalize and appends the final report line
// to the shadow. Finalize is idempotent worker-side; the finalized flag
// keeps the shadow to one final line.
func (p *Plane) handleFinalize(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, out, err := p.forward(rt, http.MethodPost, r.URL.Path, nil)
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if st == http.StatusOK && !rt.finalized {
		var resp serve.ReportResponse
		if err := json.Unmarshal(out, &resp); err == nil {
			rt.shadow.Final(resp.Report)
			rt.finalized = true
		}
	}
	proxy(w, st, out)
}

// handleDelete forwards the delete and drops the route.
func (p *Plane) handleDelete(w http.ResponseWriter, r *http.Request) {
	rt := p.routeOr404(w, r)
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st, out, err := p.forward(rt, http.MethodDelete, r.URL.Path, nil)
	if err != nil {
		serve.WriteError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	if st == http.StatusOK {
		p.mu.Lock()
		delete(p.routes, rt.id)
		p.mu.Unlock()
		p.risk.ForgetSession(rt.id)
	}
	proxy(w, st, out)
}
