// Package admin is the operational HTTP surface of a running master or
// worker process: Prometheus metrics on /metrics, a JSON liveness and
// degradation summary on /healthz, the structured event ring on
// /debug/events, a Chrome-trace timeline on /debug/timeline, and the
// standard Go profiling endpoints under /debug/pprof/. It is stdlib-only
// and deliberately decoupled from the cluster packages — any process
// hands it a metrics registry, an optional health snapshot function, and
// optional event/timeline sinks. It keeps no history: time series,
// dashboards and alerting belong to whatever scrapes /metrics.
//
// Lifecycle: New → Start (binds the listener, serves in the background) →
// Shutdown (graceful, bounded by the caller's context). Start with
// ":0" and read Addr() to get an ephemeral port, the same discipline the
// cluster listener uses.
package admin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"time"

	"isgc/internal/buildinfo"
	"isgc/internal/events"
	"isgc/internal/metrics"
)

// Config configures the admin server.
type Config struct {
	// Addr is the listen address, e.g. "127.0.0.1:9090" or ":0".
	Addr string
	// Registry backs /metrics; nil serves an empty exposition.
	Registry *metrics.Registry
	// Health produces the /healthz payload at request time; it must be
	// safe to call from any goroutine. Nil serves {"status":"ok"}.
	Health func() any
	// Events backs /debug/events with its in-memory ring; nil serves an
	// empty list.
	Events *events.Log
	// Timeline backs /debug/timeline with a Chrome trace of the spans
	// recorded so far; nil serves an empty trace.
	Timeline *events.Timeline
	// Extra mounts additional routes (pattern → handler) into the admin
	// mux — how the control plane exposes /jobs and /fleet without this
	// package importing it. Extra patterns must not collide with the
	// built-in routes; a collision panics at Handler time, which is a
	// configuration bug, not a runtime condition.
	Extra map[string]http.Handler
}

// Server is one admin HTTP server.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server

	mu    sync.Mutex
	fresh map[net.Conn]bool // accepted connections with no request read yet
}

// New builds a server; nothing listens until Start.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg, fresh: map[net.Conn]bool{}}
	s.srv = &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ConnState:         s.trackFresh,
	}
	// Shutdown waits up to 5 s for a connection that never sent a request
	// (an HTTP client's spare keep-alive dial). Nothing is in flight on
	// one, so close it once the listener is closed.
	s.srv.RegisterOnShutdown(s.closeFresh)
	return s
}

// trackFresh keeps the set of connections that have sent no request yet.
func (s *Server) trackFresh(c net.Conn, st http.ConnState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st == http.StateNew {
		s.fresh[c] = true
	} else {
		delete(s.fresh, c)
	}
}

func (s *Server) closeFresh() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.fresh {
		_ = c.Close()
	}
}

// Handler returns the route table (also used directly by tests).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/events", s.handleEvents)
	mux.HandleFunc("/debug/timeline", s.handleTimeline)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range s.cfg.Extra {
		mux.Handle(pattern, h)
	}
	return mux
}

// Start binds the listener and serves in a background goroutine.
func (s *Server) Start() error {
	if s.ln != nil {
		return fmt.Errorf("admin: already started on %s", s.ln.Addr())
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("admin: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	go func() {
		// ErrServerClosed is the normal Shutdown result; anything else
		// surfaces on the next Shutdown call, not here — the admin plane
		// must never take the training plane down with it.
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound address (empty before Start).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns "http://addr" (empty before Start).
func (s *Server) URL() string {
	if s.ln == nil {
		return ""
	}
	return "http://" + s.ln.Addr().String()
}

// Shutdown drains in-flight requests and closes the listener, bounded by
// ctx. Safe to call without a prior Start (no-op).
func (s *Server) Shutdown(ctx context.Context) error {
	if s.ln == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "isgc admin endpoints:\n"+
		"  /metrics         Prometheus exposition\n"+
		"  /healthz         liveness + degradation summary (JSON)\n"+
		"  /debug/events    recent structured events (JSON; ?n=K limits)\n"+
		"  /debug/timeline  Chrome trace of the run so far (load in ui.perfetto.dev)\n"+
		"  /debug/pprof/    Go profiling\n")
	if len(s.cfg.Extra) > 0 {
		patterns := make([]string, 0, len(s.cfg.Extra))
		for p := range s.cfg.Extra {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		fmt.Fprint(w, "extra endpoints:\n")
		for _, p := range patterns {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", metrics.TextContentType)
	if s.cfg.Registry == nil {
		return
	}
	// Errors past the first byte cannot change the status code; the
	// scraper sees a truncated body and retries on its next interval.
	_ = s.cfg.Registry.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	var payload any = map[string]string{"status": "ok"}
	if s.cfg.Health != nil {
		payload = s.cfg.Health()
	}
	payload = withBuildInfo(payload)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
	}
}

// withBuildInfo injects a "build" key into a JSON-object health payload so
// existing consumers that unmarshal the payload into their own struct keep
// working (unknown keys are ignored) while new ones see the binary's
// identity. Non-object payloads pass through untouched.
func withBuildInfo(payload any) any {
	raw, err := json.Marshal(payload)
	if err != nil {
		return payload
	}
	var obj map[string]any
	if err := json.Unmarshal(raw, &obj); err != nil || obj == nil {
		return payload
	}
	obj["build"] = buildinfo.Get()
	return obj
}

// jsonError writes a structured JSON error body with the right
// content-type — the admin API contract for malformed queries.
func jsonError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// handleEvents serves the in-memory event ring as a JSON array, oldest
// first. ?n=K returns only the most recent K events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	evs := s.cfg.Events.Snapshot()
	if evs == nil {
		evs = []events.Event{}
	}
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			jsonError(w, http.StatusBadRequest,
				fmt.Sprintf("n must be a non-negative integer, got %q", q))
			return
		}
		if n < len(evs) {
			evs = evs[len(evs)-n:]
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(evs); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err), http.StatusInternalServerError)
	}
}

// handleTimeline serves the recorded spans as a Chrome trace-event JSON
// document — save it (or fetch it directly) and load it in
// ui.perfetto.dev or chrome://tracing.
func (s *Server) handleTimeline(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="isgc-timeline.json"`)
	_ = s.cfg.Timeline.WriteChromeTrace(w)
}
