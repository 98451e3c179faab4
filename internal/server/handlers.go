package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"corun/internal/admission"
	"corun/internal/policy"
	"corun/internal/units"
	"corun/internal/workload"
)

// Handler returns the daemon's HTTP API:
//
//	POST /v1/jobs      submit a job (workload.JobSpec JSON) -> 202 Job
//	GET  /v1/jobs      list all jobs
//	GET  /v1/jobs/{id} one job's status
//	GET  /v1/plan      most recent epoch's schedule and power budget
//	GET  /v1/cap       current power cap
//	POST /v1/cap       change the power cap live
//	GET  /v1/policies  registered scheduling policies and the active one
//	POST /v1/policy    change the epoch scheduling policy live
//	GET  /v1/trace     epoch trace (CSV, or JSON with ?format=json)
//	GET  /healthz      liveness: 200 while the process runs
//	GET  /readyz       readiness: 200 once the scheduler loop has the
//	                   recovered queue; 503 while draining, while
//	                   startup recovery replay has not finished, or
//	                   while the journal breaker holds the daemon in
//	                   degraded mode
//	GET  /metrics      Prometheus text exposition
//
// Liveness and readiness are split so an orchestrator never restarts
// a pod for being busy: /healthz only says the process is alive,
// while /readyz gates traffic — it is 503 both during startup
// (journal recovery replay has not yet handed the restored queue to
// the scheduler loop) and during a graceful drain.
//
// When Config.RequestTimeout is set, every endpoint runs under a
// per-request deadline: a handler that overruns it gets its request
// context canceled and the client a 503, so one stuck request cannot
// pin a connection forever.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/plan", s.handlePlan)
	mux.HandleFunc("GET /v1/cap", s.handleGetCap)
	mux.HandleFunc("POST /v1/cap", s.handleSetCap)
	mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	mux.HandleFunc("POST /v1/policy", s.handleSetPolicy)
	mux.HandleFunc("GET /v1/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", s.m.reg.Handler())
	if s.cfg.RequestTimeout > 0 {
		th := http.TimeoutHandler(mux, s.cfg.RequestTimeout,
			`{"error": "server: request deadline exceeded"}`)
		// TimeoutHandler writes its JSON timeout body straight to the
		// outer ResponseWriter without a Content-Type, so that one 503
		// used to go out as text/plain while every other error on the
		// API is application/json. Pre-setting the header here fixes
		// the timeout path; on the success path the buffered handler
		// headers are copied over key-by-key, so endpoints that set
		// their own type (text/csv trace, the metrics exposition) still
		// win.
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			th.ServeHTTP(w, r)
		})
	}
	return mux
}

// retryHeader stamps the Retry-After hint every load-shedding
// response carries: the breaker cooldown remainder while degraded,
// otherwise an estimate from recent epoch latency. All shed paths
// (503 degraded, 429 queue-full, /readyz degraded) go through here so
// the hint cannot drift between them.
func (s *Server) retryHeader(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

// shedErr rejects a request with 503 + Retry-After: the daemon is
// alive but cannot durably accept the change right now (journal
// degraded or a write failed past its retries).
func (s *Server) shedErr(w http.ResponseWriter, err error) {
	s.retryHeader(w)
	WriteErr(w, http.StatusServiceUnavailable, err)
}

// WriteJSON writes v as the indented JSON body of a response with the
// given status. It is the one response encoder of the daemon's and the
// fleet coordinator's APIs.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteErr writes err as a {"error": "..."} JSON body with the given
// status.
func WriteErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The pooled buffer serves twice: first it holds the request body,
	// then (once the decoded spec has copied what it needs) the
	// response encoding — zero steady-state allocation either way.
	buf := reqBufPool.Get().(*reqBuf)
	defer func() { reqBufPool.Put(buf) }()
	var err error
	buf.b, err = readBody(http.MaxBytesReader(w, r.Body, 1<<20), buf.b)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	spec, err := workload.DecodeJobSpecBytes(buf.b)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	job, err := s.submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		WriteErr(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDegraded), errors.Is(err, ErrJournal):
		// The job was NOT acknowledged: its durability could not be
		// established, so the client must retry. (A failed fsync may
		// still have left frames in the log — restart recovery can
		// surface such a job, which is the at-least-once side of the
		// "an ack is never lost" guarantee.)
		s.shedErr(w, err)
		return
	case errors.Is(err, ErrQueueFull):
		// The 429 names the exhausted bound (global vs tenant) and
		// hints Retry-After from the submitting tenant's own drain
		// rate, not the global epoch latency: a throttled tenant's
		// backoff must not track how fast *other* tenants drain.
		var full *admission.FullError
		if errors.As(err, &full) {
			w.Header().Set("Retry-After", strconv.Itoa(s.tenantRetryAfterSeconds(full.Tenant)))
			WriteJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":  err.Error(),
				"bound":  full.Scope,
				"tenant": full.Tenant,
				"limit":  full.Limit,
			})
			return
		}
		s.retryHeader(w)
		WriteErr(w, http.StatusTooManyRequests, err)
		return
	case err != nil:
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	out := appendJobJSON(buf.b[:0], job)
	out = append(out, '\n')
	buf.b = out
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_, _ = w.Write(out)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	body, err := s.jobsJSON()
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j := s.jobRef(id)
	if j == nil {
		WriteErr(w, http.StatusNotFound, fmt.Errorf("server: unknown job %q", id))
		return
	}
	// Encode straight off the immutable snapshot — no copy, no
	// reflection, one pooled buffer.
	buf := reqBufPool.Get().(*reqBuf)
	out := appendJobJSON(buf.b[:0], j)
	out = append(out, '\n')
	buf.b = out
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
	reqBufPool.Put(buf)
}

func (s *Server) handlePlan(w http.ResponseWriter, _ *http.Request) {
	pv := s.lastPlan.Load()
	if pv == nil {
		WriteErr(w, http.StatusNotFound, errors.New("server: no epoch has been planned yet"))
		return
	}
	// Stored PlanViews are immutable, so the encoded body is cached by
	// pointer identity: between epochs, polls reuse the same bytes.
	c := s.planCache.Load()
	if c == nil || c.pv != pv {
		var bb bytes.Buffer
		enc := json.NewEncoder(&bb)
		enc.SetIndent("", "  ")
		if err := enc.Encode(pv); err != nil {
			WriteErr(w, http.StatusInternalServerError, err)
			return
		}
		c = &planCacheEntry{pv: pv, body: bb.Bytes()}
		s.planCache.Store(c)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(c.body)
}

func (s *Server) capBody() map[string]float64 {
	dc := s.DomainCaps()
	return map[string]float64{
		"cap_watts": float64(s.Cap()),
		"pp0_watts": float64(dc.PP0),
		"pp1_watts": float64(dc.PP1),
	}
}

func (s *Server) handleGetCap(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, s.capBody())
}

func (s *Server) handleSetCap(w http.ResponseWriter, r *http.Request) {
	var req struct {
		CapWatts *float64 `json:"cap_watts"`
		PP0Watts *float64 `json:"pp0_watts"`
		PP1Watts *float64 `json:"pp1_watts"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || (req.CapWatts == nil && req.PP0Watts == nil && req.PP1Watts == nil) {
		WriteErr(w, http.StatusBadRequest, errors.New(`server: body must set at least one of {"cap_watts", "pp0_watts", "pp1_watts"} (0 = uncapped)`))
		return
	}
	// Absent fields keep their current value, so a package-only client
	// (or an old one that never learned the plane fields) doesn't
	// silently clear plane caps set by someone else.
	cap := s.Cap()
	dc := s.DomainCaps()
	if req.CapWatts != nil {
		cap = units.Watts(*req.CapWatts)
	}
	if req.PP0Watts != nil {
		dc.PP0 = units.Watts(*req.PP0Watts)
	}
	if req.PP1Watts != nil {
		dc.PP1 = units.Watts(*req.PP1Watts)
	}
	if err := s.SetCaps(cap, dc); err != nil {
		if errors.Is(err, ErrDegraded) || errors.Is(err, ErrJournal) {
			s.shedErr(w, err)
			return
		}
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, s.capBody())
}

// handlePolicies lists the policy registry — the set a POST /v1/policy
// hot-swap accepts — plus the currently active policy.
func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"policies": policy.List(),
		"active":   s.Policy(),
	})
}

func (s *Server) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Policy string `json:"policy"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		WriteErr(w, http.StatusBadRequest, errors.New(`server: body must be {"policy": "<name>"}; GET /v1/policies lists the registered names`))
		return
	}
	p, err := policy.Canonical(req.Policy)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	if err := s.SetPolicy(p); err != nil {
		if errors.Is(err, ErrDegraded) || errors.Is(err, ErrJournal) {
			s.shedErr(w, err)
			return
		}
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"policy": p})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	asJSON := r.URL.Query().Get("format") == "json"
	if asJSON {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	if err := s.WriteTrace(w, asJSON); err != nil {
		// Headers are gone; all we can do is drop the connection.
		return
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyStatus is the /readyz JSON body. Beyond the gate status it
// carries the node's fleet identity and its cheap load/budget
// snapshot, so a coordinator's health poll doubles as its stats poll —
// one request per node per interval covers liveness, routing load, and
// power-share bookkeeping.
type readyStatus struct {
	Status     string  `json:"status"`
	Node       string  `json:"node,omitempty"`
	QueueDepth int     `json:"queue_depth"`
	CapWatts   float64 `json:"cap_watts"`
}

func (s *Server) readyStatus(status string) readyStatus {
	return readyStatus{
		Status:     status,
		Node:       s.cfg.NodeID,
		QueueDepth: s.QueueDepth(),
		CapWatts:   float64(s.Cap()),
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.Draining():
		WriteJSON(w, http.StatusServiceUnavailable, s.readyStatus("draining"))
	case s.Degraded():
		// Alive but shedding: the journal breaker is open (or probing),
		// so new work cannot be durably acknowledged. Reported on
		// readiness so orchestrators route traffic elsewhere without
		// restarting the pod — recovery is automatic once a probe
		// write succeeds.
		s.retryHeader(w)
		WriteJSON(w, http.StatusServiceUnavailable, s.readyStatus("degraded"))
	case !s.Ready():
		WriteJSON(w, http.StatusServiceUnavailable, s.readyStatus("starting"))
	default:
		WriteJSON(w, http.StatusOK, s.readyStatus("ready"))
	}
}
