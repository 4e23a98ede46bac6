// HTTP API for the control plane: job submission and lifecycle under
// /jobs, fleet membership under /fleet. The handler is plain http.Handler
// so it mounts equally under the admin server or a bare mux in tests.
//
//	POST   /jobs               submit a JobSpec, returns {"id": "job-001"}
//	GET    /jobs               list all jobs (submission order)
//	GET    /jobs/{id}          one job's status
//	DELETE /jobs/{id}          kill the job
//	POST   /jobs/{id}/drain    quiesce the job at a step boundary
//	GET    /jobs/{id}/metrics  the job's master metrics (Prometheus text;
//	                           the last generation's after the job ends)
//	GET    /fleet              per-agent assignment and liveness
package controlplane

import (
	"encoding/json"
	"net/http"
	"strings"

	"isgc/internal/metrics"
)

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func apiHandler(p *Plane) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET only"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"agents": p.FleetSnapshot()})
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, map[string]any{"jobs": p.Jobs()})
		case http.MethodPost:
			var spec JobSpec
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				writeJSON(w, http.StatusBadRequest, apiError{"bad job spec: " + err.Error()})
				return
			}
			id, err := p.Submit(spec)
			if err != nil {
				writeJSON(w, http.StatusBadRequest, apiError{err.Error()})
				return
			}
			writeJSON(w, http.StatusCreated, map[string]string{"id": id})
		default:
			writeJSON(w, http.StatusMethodNotAllowed, apiError{"GET or POST only"})
		}
	})
	mux.HandleFunc("/jobs/", func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
		id, verb, _ := strings.Cut(rest, "/")
		if id == "" {
			writeJSON(w, http.StatusNotFound, apiError{"missing job id"})
			return
		}
		switch {
		case verb == "" && r.Method == http.MethodGet:
			st, ok := p.Job(id)
			if !ok {
				writeJSON(w, http.StatusNotFound, apiError{"no job " + id})
				return
			}
			writeJSON(w, http.StatusOK, st)
		case verb == "" && r.Method == http.MethodDelete:
			if err := p.Kill(id); err != nil {
				code := http.StatusConflict
				if _, ok := p.Job(id); !ok {
					code = http.StatusNotFound
				}
				writeJSON(w, code, apiError{err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": string(JobKilled)})
		case verb == "drain" && r.Method == http.MethodPost:
			if err := p.Drain(id); err != nil {
				code := http.StatusConflict
				if _, ok := p.Job(id); !ok {
					code = http.StatusNotFound
				}
				writeJSON(w, code, apiError{err.Error()})
				return
			}
			writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": string(JobDrained)})
		case verb == "metrics" && r.Method == http.MethodGet:
			w.Header().Set("Content-Type", metrics.TextContentType)
			// Past the first byte an error cannot change the status; the
			// scraper sees a truncated body and retries.
			if ok, _ := p.sched.WriteJobMetrics(w, id); !ok {
				writeJSON(w, http.StatusNotFound, apiError{"no job " + id})
			}
		default:
			writeJSON(w, http.StatusNotFound, apiError{"unknown route"})
		}
	})
	return mux
}
