package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"corun/internal/cluster"
	"corun/internal/policy"
	"corun/internal/server"
	"corun/internal/workload"
)

// Handler returns the coordinator's HTTP API — the same /v1/* surface
// a single corund daemon speaks, served fleet-wide:
//
//	POST /v1/jobs      place and forward a submission (retry-or-reroute)
//	GET  /v1/jobs      fan-out merge of every node's job table
//	GET  /v1/jobs/{id} proxied to the owning shard (ID-prefix routing)
//	GET  /v1/plan      aggregated per-node plans + fleet power summary
//	GET  /v1/cap       the fleet-wide power budget
//	POST /v1/cap       change the budget and repartition immediately
//	GET  /v1/policies  policy registry (proxied from a healthy node)
//	POST /v1/policy    broadcast a policy change to every healthy node
//	GET  /v1/nodes     per-node fleet state (health, shares, routing)
//	GET  /healthz      coordinator process liveness
//	GET  /readyz       200 while at least one node is in rotation
//	GET  /metrics      fleet_* Prometheus series
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", c.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/plan", c.handlePlan)
	mux.HandleFunc("GET /v1/cap", c.handleGetCap)
	mux.HandleFunc("POST /v1/cap", c.handleSetCap)
	mux.HandleFunc("GET /v1/policies", c.handlePolicies)
	mux.HandleFunc("POST /v1/policy", c.handleSetPolicy)
	mux.HandleFunc("GET /v1/nodes", c.handleNodes)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("GET /readyz", c.handleReady)
	mux.Handle("GET /metrics", c.m.reg.Handler())
	if c.cfg.RequestTimeout > 0 {
		th := http.TimeoutHandler(mux, c.cfg.RequestTimeout,
			`{"error": "fleet: request deadline exceeded"}`)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			th.ServeHTTP(w, r)
		})
	}
	return mux
}

// forward proxies one request to a node. A non-nil body is sent as
// JSON.
func (c *Coordinator) forward(ctx context.Context, method, url string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.client.Do(req)
}

// place runs the placer over the current fleet snapshot, excluding
// nodes already tried this submission, and optimistically folds the
// job into the winner's load estimate (rolled back by unplace if the
// forward fails) so concurrent submissions see each other.
func (c *Coordinator) place(hint cluster.JobHint, tried map[*member]bool) *member {
	c.mu.Lock()
	defer c.mu.Unlock()
	nodes := make([]cluster.NodeState, len(c.members))
	for i, mb := range c.members {
		headroom := mb.reportedCapW
		if c.budgetW > 0 {
			headroom = mb.shareW
		}
		nodes[i] = cluster.NodeState{
			Load:      float64(mb.queueDepth + mb.placedSincePoll),
			BiasGPU:   mb.biasGPU,
			HeadroomW: headroom,
			Unhealthy: !mb.healthy || tried[mb],
		}
	}
	idx, err := c.placer.Pick(hint, nodes)
	if err != nil {
		return nil
	}
	mb := c.members[idx]
	mb.placedSincePoll++
	mb.biasGPU += hint.BiasGPU()
	return mb
}

// unplace rolls back place's optimistic accounting after a submission
// was not accepted by the node.
func (c *Coordinator) unplace(mb *member, hint cluster.JobHint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if mb.placedSincePoll > 0 {
		mb.placedSincePoll--
	}
	mb.biasGPU -= hint.BiasGPU()
}

// recordPlacement finalizes the routing counters once a node
// acknowledged the job.
func (c *Coordinator) recordPlacement(mb *member, hint cluster.JobHint) {
	c.mu.Lock()
	mb.routed++
	if hint.BiasGPU() > 0 {
		mb.placedGPU++
	} else {
		mb.placedCPU++
	}
	c.mu.Unlock()
	c.m.routed.Inc(mb.id)
	if hint.BiasGPU() > 0 {
		c.m.placedGPU.Inc(mb.id)
	} else {
		c.m.placedCPU.Inc(mb.id)
	}
}

// handleSubmit places a job and forwards it. Transport errors and
// 5xxs from the chosen node suspend it and reroute to the next-best
// healthy node; a node's own 4xx verdicts (bad spec, 429 queue-full)
// pass through — rerouting a full queue would defeat the node's
// admission control, and the coordinator's Retry-After passthrough
// keeps the client's backoff honest.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := workload.DecodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	hint, err := c.hintFor(spec)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		server.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	tried := make(map[*member]bool)
	for {
		mb := c.place(hint, tried)
		if mb == nil {
			break
		}
		resp, err := c.forward(r.Context(), http.MethodPost, mb.url+"/v1/jobs", payload)
		if err != nil {
			c.unplace(mb, hint)
			c.suspend(mb, err)
			tried[mb] = true
			c.m.rerouted.Inc()
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			c.unplace(mb, hint)
			c.suspend(mb, fmt.Errorf("fleet: node %s: submit failed: %s", mb.id, resp.Status))
			tried[mb] = true
			c.m.rerouted.Inc()
			continue
		}
		if resp.StatusCode == http.StatusAccepted {
			c.recordPlacement(mb, hint)
		} else {
			c.unplace(mb, hint)
		}
		copyHeaders(w, resp, "Location", "Retry-After", "Content-Type")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
		return
	}
	c.m.routingFailed.Inc()
	server.WriteErr(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: no healthy node accepted the job"))
}

func copyHeaders(w http.ResponseWriter, resp *http.Response, keys ...string) {
	for _, k := range keys {
		if v := resp.Header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
}

// ownerOf routes a job ID to its shard by longest node-ID prefix
// match (IDs are minted as "<node-id>-job-%06d" by the owning node).
// Longest-prefix matters because node IDs may nest: with nodes "a"
// and "a-b", job "a-b-job-000001" belongs to "a-b".
func (c *Coordinator) ownerOf(id string) *member {
	var best *member
	for _, mb := range c.members {
		if len(id) > len(mb.id)+1 && id[:len(mb.id)] == mb.id && id[len(mb.id)] == '-' {
			if best == nil || len(mb.id) > len(best.id) {
				best = mb
			}
		}
	}
	return best
}

// handleJob proxies a job lookup to its owning shard. The proxy is
// attempted even when the shard is marked unhealthy — a draining or
// flapping node can still answer reads — and only a transport failure
// yields the shard-unavailable 503.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	mb := c.ownerOf(id)
	if mb == nil {
		server.WriteErr(w, http.StatusNotFound,
			fmt.Errorf("fleet: unknown job %q (no node owns this ID prefix)", id))
		return
	}
	resp, err := c.forward(r.Context(), http.MethodGet, mb.url+"/v1/jobs/"+id, nil)
	if err != nil {
		c.m.proxyErrors.Inc()
		c.suspend(mb, err)
		server.WriteErr(w, http.StatusServiceUnavailable,
			fmt.Errorf("fleet: shard %s unavailable: %v", mb.id, err))
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	copyHeaders(w, resp, "Retry-After", "Content-Type")
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// handleJobs merges every node's job table. Unreachable nodes are
// reported by ID in "unavailable" rather than failing the whole list:
// a partial fleet view with provenance beats a 503.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	type nodeJobs struct {
		jobs        []json.RawMessage
		unavailable bool
	}
	results := make([]nodeJobs, len(c.members))
	var wg sync.WaitGroup
	for i, mb := range c.members {
		wg.Add(1)
		go func(i int, mb *member) {
			defer wg.Done()
			resp, err := c.forward(r.Context(), http.MethodGet, mb.url+"/v1/jobs", nil)
			if err != nil {
				c.m.proxyErrors.Inc()
				results[i].unavailable = true
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				c.m.proxyErrors.Inc()
				results[i].unavailable = true
				return
			}
			var out struct {
				Jobs []json.RawMessage `json:"jobs"`
			}
			if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); err != nil {
				c.m.proxyErrors.Inc()
				results[i].unavailable = true
				return
			}
			results[i].jobs = out.Jobs
		}(i, mb)
	}
	wg.Wait()
	merged := struct {
		Jobs        []json.RawMessage `json:"jobs"`
		Unavailable []string          `json:"unavailable,omitempty"`
	}{Jobs: []json.RawMessage{}}
	for i, res := range results {
		if res.unavailable {
			merged.Unavailable = append(merged.Unavailable, c.members[i].id)
			continue
		}
		merged.Jobs = append(merged.Jobs, res.jobs...)
	}
	server.WriteJSON(w, http.StatusOK, merged)
}

// planNode is one node's slice of the aggregated plan view.
type planNode struct {
	Healthy        bool            `json:"healthy"`
	CapShareWatts  float64         `json:"cap_share_watts,omitempty"`
	Plan           json.RawMessage `json:"plan,omitempty"`
	AvgPowerWatts  float64         `json:"avg_power_watts,omitempty"`
	CapWatts       float64         `json:"cap_watts,omitempty"`
	CapUtilization float64         `json:"cap_utilization,omitempty"`
}

// handlePlan serves the fleet-wide plan aggregate: the budget, a
// power roll-up, and each node's latest epoch plan verbatim. The
// fan-out result is cached for PlanCacheTTL so N dashboards polling
// the coordinator do not turn into N×nodes upstream request streams.
func (c *Coordinator) handlePlan(w http.ResponseWriter, r *http.Request) {
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.planCached != nil && time.Since(c.planAt) < c.cfg.PlanCacheTTL {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(c.planCached)
		return
	}
	body := c.buildPlan(r.Context())
	c.planCached = body
	c.planAt = time.Now()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (c *Coordinator) buildPlan(ctx context.Context) []byte {
	plans := make([]json.RawMessage, len(c.members))
	var wg sync.WaitGroup
	for i, mb := range c.members {
		wg.Add(1)
		go func(i int, mb *member) {
			defer wg.Done()
			resp, err := c.forward(ctx, http.MethodGet, mb.url+"/v1/plan", nil)
			if err != nil {
				c.m.proxyErrors.Inc()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				// 404 just means no epoch planned yet; not an error.
				if resp.StatusCode != http.StatusNotFound {
					c.m.proxyErrors.Inc()
				}
				return
			}
			raw, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
			if err != nil {
				c.m.proxyErrors.Inc()
				return
			}
			plans[i] = raw
		}(i, mb)
	}
	wg.Wait()

	c.mu.Lock()
	view := struct {
		BudgetWatts   float64             `json:"budget_watts"`
		NodesTotal    int                 `json:"nodes_total"`
		NodesHealthy  int                 `json:"nodes_healthy"`
		AvgPowerWatts float64             `json:"avg_power_watts"`
		Nodes         map[string]planNode `json:"nodes"`
	}{
		BudgetWatts: c.budgetW,
		NodesTotal:  len(c.members),
		Nodes:       make(map[string]planNode, len(c.members)),
	}
	for i, mb := range c.members {
		if mb.healthy {
			view.NodesHealthy++
		}
		pn := planNode{Healthy: mb.healthy, CapShareWatts: mb.shareW}
		if plans[i] != nil {
			pn.Plan = plans[i]
			var summary struct {
				AvgPowerWatts  float64 `json:"avg_power_watts"`
				CapWatts       float64 `json:"cap_watts"`
				CapUtilization float64 `json:"cap_utilization"`
			}
			if json.Unmarshal(plans[i], &summary) == nil {
				pn.AvgPowerWatts = summary.AvgPowerWatts
				pn.CapWatts = summary.CapWatts
				pn.CapUtilization = summary.CapUtilization
				view.AvgPowerWatts += summary.AvgPowerWatts
			}
		}
		view.Nodes[mb.id] = pn
	}
	c.mu.Unlock()
	buf, _ := json.MarshalIndent(view, "", "  ")
	return append(buf, '\n')
}

func (c *Coordinator) handleGetCap(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]float64{"cap_watts": c.BudgetW()})
}

func (c *Coordinator) handleSetCap(w http.ResponseWriter, r *http.Request) {
	var req struct {
		CapWatts *float64 `json:"cap_watts"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil || req.CapWatts == nil {
		server.WriteErr(w, http.StatusBadRequest,
			fmt.Errorf(`fleet: body must be {"cap_watts": <number>} (the fleet-wide budget; 0 = unmanaged)`))
		return
	}
	if err := c.SetBudgetW(r.Context(), *req.CapWatts); err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]float64{"cap_watts": c.BudgetW()})
}

// handlePolicies proxies the registry listing from any healthy node —
// the registry is compiled into the binary, so every node answers the
// same.
func (c *Coordinator) handlePolicies(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	var target *member
	for _, mb := range c.members {
		if mb.healthy {
			target = mb
			break
		}
	}
	c.mu.Unlock()
	if target == nil {
		server.WriteErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: no healthy node"))
		return
	}
	resp, err := c.forward(r.Context(), http.MethodGet, target.url+"/v1/policies", nil)
	if err != nil {
		c.m.proxyErrors.Inc()
		server.WriteErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: node %s unavailable: %v", target.id, err))
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	copyHeaders(w, resp, "Content-Type")
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(body)
}

// handleSetPolicy broadcasts a policy change to every healthy node.
// Partial application is reported per node with a 502: the caller
// must know the fleet is split-brained on policy until the stragglers
// are retried.
func (c *Coordinator) handleSetPolicy(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Policy string `json:"policy"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		server.WriteErr(w, http.StatusBadRequest,
			fmt.Errorf(`fleet: body must be {"policy": "<name>"}; GET /v1/policies lists the registered names`))
		return
	}
	canonical, err := policy.Canonical(req.Policy)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	c.mu.Lock()
	var targets []*member
	for _, mb := range c.members {
		if mb.healthy {
			targets = append(targets, mb)
		}
	}
	c.mu.Unlock()
	if len(targets) == 0 {
		server.WriteErr(w, http.StatusServiceUnavailable, fmt.Errorf("fleet: no healthy node"))
		return
	}
	payload := []byte(fmt.Sprintf(`{"policy": %q}`, canonical))
	applied := []string{}
	failed := map[string]string{}
	for _, mb := range targets {
		resp, err := c.forward(r.Context(), http.MethodPost, mb.url+"/v1/policy", payload)
		if err != nil {
			failed[mb.id] = err.Error()
			c.suspend(mb, err)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
			failed[mb.id] = fmt.Sprintf("%s: %s", resp.Status, bytes.TrimSpace(body))
		} else {
			applied = append(applied, mb.id)
		}
		resp.Body.Close()
	}
	status := http.StatusOK
	if len(failed) > 0 {
		status = http.StatusBadGateway
	}
	server.WriteJSON(w, status, map[string]any{
		"policy":  canonical,
		"applied": applied,
		"failed":  failed,
	})
}

// nodeView is one row of GET /v1/nodes.
type nodeView struct {
	ID            string  `json:"id"`
	URL           string  `json:"url"`
	Healthy       bool    `json:"healthy"`
	Status        string  `json:"status"`
	QueueDepth    int     `json:"queue_depth"`
	CapShareWatts float64 `json:"cap_share_watts"`
	CapWatts      float64 `json:"cap_watts"`
	Routed        uint64  `json:"routed"`
	PlacedCPUPref uint64  `json:"placed_cpu_pref"`
	PlacedGPUPref uint64  `json:"placed_gpu_pref"`
	LastError     string  `json:"last_error,omitempty"`
}

// handleNodes reports the coordinator's live member table — the
// operator's fleet dashboard and the load harness's per-node
// placement evidence.
func (c *Coordinator) handleNodes(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	views := make([]nodeView, 0, len(c.members))
	for _, mb := range c.members {
		views = append(views, nodeView{
			ID:            mb.id,
			URL:           mb.url,
			Healthy:       mb.healthy,
			Status:        mb.status,
			QueueDepth:    mb.queueDepth + mb.placedSincePoll,
			CapShareWatts: mb.shareW,
			CapWatts:      mb.reportedCapW,
			Routed:        mb.routed,
			PlacedCPUPref: mb.placedCPU,
			PlacedGPUPref: mb.placedGPU,
			LastError:     mb.lastErr,
		})
	}
	c.mu.Unlock()
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"balancer": c.placer.Strategy().String(),
		"nodes":    views,
	})
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the fleet readiness gate: 200 while at least one
// node is in rotation, with every node's last probe status attached.
func (c *Coordinator) handleReady(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	nodes := make(map[string]string, len(c.members))
	healthy := 0
	for _, mb := range c.members {
		st := mb.status
		if st == "" {
			st = "unknown"
		}
		nodes[mb.id] = st
		if mb.healthy {
			healthy++
		}
	}
	c.mu.Unlock()
	body := map[string]any{
		"status":        "ready",
		"nodes_healthy": healthy,
		"nodes":         nodes,
	}
	if healthy == 0 {
		body["status"] = "unavailable"
		server.WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	server.WriteJSON(w, http.StatusOK, body)
}
