package control

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// RegisterWorkerRequest announces a worker to the control plane. Name is
// the worker's stable identity (its ring member key); URL is the base URL
// the plane reaches it at.
type RegisterWorkerRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// WorkerStatus is one worker's row in the topology: identity, the plane's
// view of its health, and how many sessions are routed to it.
type WorkerStatus struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Draining bool   `json:"draining,omitempty"`
	Sessions int    `json:"sessions"`
}

// TopologyResponse is the control plane's fleet view: every known worker
// (registered order is irrelevant — rows sort by name) and the total
// session count.
type TopologyResponse struct {
	Workers  []WorkerStatus `json:"workers"`
	Sessions int            `json:"sessions"`
}

// HealthResponse is the plane's own /healthz body.
type HealthResponse struct {
	Status   string `json:"status"`
	Workers  int    `json:"workers"`
	Sessions int    `json:"sessions"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //lint:allow errignore — headers are sent; nothing useful can follow a mid-body failure
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// readJSON strictly decodes the request body, as the worker API does:
// unknown fields and trailing garbage fail loudly.
func readJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// proxy relays a worker's verbatim status and body to the client.
func proxy(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body) //lint:allow errignore — headers are sent; nothing useful can follow a mid-body failure
}
