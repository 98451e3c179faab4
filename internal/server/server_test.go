package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/policy"
	"corun/internal/workload"
)

var (
	charOnce sync.Once
	charVal  *model.Characterization
	charErr  error
)

func testChar(t testing.TB) *model.Characterization {
	t.Helper()
	charOnce.Do(func() {
		charVal, charErr = model.Characterize(model.CharacterizeOptions{
			Cfg: apu.DefaultConfig(), Mem: memsys.Default(),
		})
	})
	if charErr != nil {
		t.Fatal(charErr)
	}
	return charVal
}

func newTestServer(t testing.TB, mod func(*Config)) *Server {
	t.Helper()
	cfg := Config{Char: testChar(t), Cap: 15, Policy: online.PolicyHCSPlus, Seed: 1}
	if mod != nil {
		mod(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func postJSON(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// metricValue extracts one sample from a /metrics body; name may
// include a label clause.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

func waitAllTerminal(t *testing.T, s *Server, n int, within time.Duration) []Job {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		jobs := s.Jobs()
		term := 0
		for _, j := range jobs {
			if j.State.Terminal() {
				term++
			}
		}
		if len(jobs) >= n && term == len(jobs) {
			return jobs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("jobs not terminal after %v: %+v", within, s.Jobs())
	return nil
}

// TestEndToEnd drives the full daemon over HTTP: submit a mixed batch,
// wait for it to be served, then check status, plan, trace, and the
// metrics surface against the job states.
func TestEndToEnd(t *testing.T) {
	s := newTestServer(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s.Start(ctx)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []string{
		`{"program":"streamcluster"}`,
		`{"program":"dwt2d","scale":1.2,"label":"waves"}`,
		`{"program":"hotspot","deadline_s":10000}`,
		`{"program":"lud","deadline_s":0.001}`,
		`{"program":"cfd","scale":0.9}`,
	}
	ids := make([]string, 0, len(specs))
	for _, spec := range specs {
		code, body := postJSON(t, ts.URL+"/v1/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s -> %d: %s", spec, code, body)
		}
		var j Job
		if err := json.Unmarshal([]byte(body), &j); err != nil {
			t.Fatal(err)
		}
		if j.ID == "" || j.State != JobQueued {
			t.Fatalf("submit response %+v", j)
		}
		ids = append(ids, j.ID)
	}

	jobs := waitAllTerminal(t, s, len(specs), 60*time.Second)
	for _, j := range jobs {
		if j.State != JobDone {
			t.Fatalf("job %s state %s (%s)", j.ID, j.State, j.Error)
		}
		if j.FinishedSimS <= j.StartedSimS || j.ResponseS <= 0 {
			t.Errorf("job %s malformed times: %+v", j.ID, j)
		}
		if j.Device != "CPU" && j.Device != "GPU" {
			t.Errorf("job %s device %q", j.ID, j.Device)
		}
		if j.Epoch < 1 {
			t.Errorf("job %s epoch %d", j.ID, j.Epoch)
		}
	}

	// Per-job status over HTTP, including deadline accounting.
	code, body := get(t, ts.URL+"/v1/jobs/"+ids[2])
	if code != http.StatusOK {
		t.Fatalf("job status -> %d", code)
	}
	var hotspot Job
	if err := json.Unmarshal([]byte(body), &hotspot); err != nil {
		t.Fatal(err)
	}
	if hotspot.DeadlineMet == nil || !*hotspot.DeadlineMet {
		t.Errorf("generous deadline not met: %+v", hotspot)
	}
	code, body = get(t, ts.URL+"/v1/jobs/"+ids[3])
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var lud Job
	if err := json.Unmarshal([]byte(body), &lud); err != nil {
		t.Fatal(err)
	}
	if lud.DeadlineMet == nil || *lud.DeadlineMet {
		t.Errorf("impossible deadline reported met: %+v", lud)
	}

	// Plan: every scheduled job appears, power budget fields populated.
	code, body = get(t, ts.URL+"/v1/plan")
	if code != http.StatusOK {
		t.Fatalf("plan -> %d: %s", code, body)
	}
	var plan PlanView
	if err := json.Unmarshal([]byte(body), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.State != "done" || plan.Policy != "hcs+" || plan.CapWatts != 15 {
		t.Errorf("plan header %+v", plan)
	}
	if len(plan.CPUOrder)+len(plan.GPUOrder) != len(plan.Jobs) || len(plan.Jobs) == 0 {
		t.Errorf("plan orders inconsistent: %+v", plan)
	}
	if plan.SimulatedMakespanS <= 0 || plan.PredictedMakespanS <= 0 || plan.AvgPowerWatts <= 0 {
		t.Errorf("plan missing epoch results: %+v", plan)
	}
	if plan.CapUtilization <= 0 || plan.CapUtilization > 1.5 {
		t.Errorf("cap utilization %v out of range", plan.CapUtilization)
	}

	// Trace in both encodings.
	code, body = get(t, ts.URL+"/v1/trace")
	if code != http.StatusOK || !strings.HasPrefix(body, "time_s,epoch_makespan_s") {
		t.Errorf("csv trace -> %d: %q", code, body)
	}
	code, body = get(t, ts.URL+"/v1/trace?format=json")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	var tr struct {
		Series []struct {
			Name    string `json:"name"`
			Samples []any  `json:"samples"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Series) != 3 || len(tr.Series[0].Samples) == 0 {
		t.Errorf("json trace %+v", tr)
	}

	// Metrics agree with job states and are valid exposition format.
	code, body = get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatal(code)
	}
	checkMetricsFormat(t, body)
	n := float64(len(specs))
	if v := metricValue(t, body, "corund_jobs_submitted_total"); v != n {
		t.Errorf("submitted %v, want %v", v, n)
	}
	if v := metricValue(t, body, "corund_jobs_done_total"); v != n {
		t.Errorf("done %v, want %v", v, n)
	}
	if v := metricValue(t, body, "corund_queue_depth"); v != 0 {
		t.Errorf("queue depth %v", v)
	}
	if v := metricValue(t, body, "corund_epochs_total"); v < 1 {
		t.Errorf("epochs %v", v)
	}
	if v := metricValue(t, body, "corund_up"); v != 1 {
		t.Errorf("up %v", v)
	}
	if v := metricValue(t, body, "corund_epoch_latency_seconds_count"); v < 1 {
		t.Errorf("latency count %v", v)
	}
	if v := metricValue(t, body, "corund_power_cap_watts"); v != 15 {
		t.Errorf("cap gauge %v", v)
	}
	sched := metricValue(t, body, `corund_jobs_scheduled_total{policy="hcs+"}`)
	if sched != n {
		t.Errorf("scheduled{hcs+} %v, want %v", sched, n)
	}
	if v := metricValue(t, body, "corund_energy_joules_total"); v <= 0 {
		t.Errorf("energy %v", v)
	}

	// Liveness and readiness while healthy and started.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz -> %d", code)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("readyz -> %d", code)
	}
}

// checkMetricsFormat asserts every line is HELP/TYPE framing or a
// well-formed sample.
func checkMetricsFormat(t *testing.T, body string) {
	t.Helper()
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"\})? [^ ]+$`)
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sample.MatchString(line) {
			t.Errorf("malformed metrics line %q", line)
		}
	}
}

// TestGracefulDrain submits jobs, drains immediately, and checks that
// the queue is flushed, new submissions are rejected, and the loop
// exits.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EpochGap = 500 * time.Millisecond })
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"hotspot"}`)
		if code != http.StatusAccepted {
			t.Fatalf("submit -> %d: %s", code, body)
		}
	}
	// Jobs are queued inside the batching gap; drain now.
	s.Drain()

	if code, _ := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining -> %d, want 503", code)
	}
	// Liveness holds while draining; readiness drops.
	if code, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("healthz while draining -> %d, want 200", code)
	}
	if code, _ := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining -> %d, want 503", code)
	}

	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not finish")
	}

	// The in-flight queue was flushed through a final epoch.
	for _, j := range s.Jobs() {
		if j.State != JobDone {
			t.Errorf("job %s state %s after drain", j.ID, j.State)
		}
	}
	_, body := get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, "corund_jobs_done_total"); v != 3 {
		t.Errorf("done %v, want 3", v)
	}
	if v := metricValue(t, body, "corund_jobs_rejected_total"); v != 1 {
		t.Errorf("rejected %v, want 1", v)
	}
	if v := metricValue(t, body, "corund_queue_depth"); v != 0 {
		t.Errorf("queue depth %v", v)
	}
	if v := metricValue(t, body, "corund_up"); v != 0 {
		t.Errorf("up %v after drain", v)
	}
}

// TestContextCancelDrains covers the SIGTERM path: cancelling the
// loop's context stops admission and exits after flushing.
func TestContextCancelDrains(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.EpochGap = 200 * time.Millisecond })
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	if _, err := s.Submit(mustSpec(t, "srad")); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("cancel did not drain")
	}
	for _, j := range s.Jobs() {
		if !j.State.Terminal() {
			t.Errorf("job %s left in %s", j.ID, j.State)
		}
	}
	if _, err := s.Submit(mustSpec(t, "lud")); err == nil {
		t.Error("submit accepted after cancel")
	}
}

// TestAdmissionControl fills the queue past MaxQueue and expects 429.
// The scheduler is started only afterwards: the loop claims the queue
// as soon as it sees work, so the bound is filled before Start to keep
// the check deterministic.
func TestAdmissionControl(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxQueue = 2
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`); code != http.StatusAccepted {
			t.Fatalf("submit %d -> %d: %s", i, code, body)
		}
	}
	code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"lud"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-limit submit -> %d: %s", code, body)
	}
	_, mbody := get(t, ts.URL+"/metrics")
	if v := metricValue(t, mbody, "corund_jobs_rejected_total"); v != 1 {
		t.Errorf("rejected %v, want 1", v)
	}
	if v := metricValue(t, mbody, "corund_queue_depth"); v != 2 {
		t.Errorf("queue depth %v, want 2", v)
	}
	if v := metricValue(t, mbody, `corund_tenant_queued{tenant="default"}`); v != 2 {
		t.Errorf("tenant queue depth %v, want 2", v)
	}
	if v := metricValue(t, mbody, `corund_tenant_rejected_total{tenant="default"}`); v != 1 {
		t.Errorf("tenant rejected %v, want 1", v)
	}
	// Cleanup: start the scheduler and flush the held queue.
	s.Start(context.Background())
	s.Drain()
	select {
	case <-s.Drained():
	case <-time.After(60 * time.Second):
		t.Fatal("drain stuck")
	}
}

// TestBadRequests covers the API's 4xx paths, including the bad-policy
// 400 from the policy registry.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/jobs", `{"program":"nosuch"}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"program":"cfd","scale":-2}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"program":"cfd","bogus":1}`, http.StatusBadRequest},
		{"POST", "/v1/jobs", `{`, http.StatusBadRequest},
		{"POST", "/v1/cap", `{"cap_watts":-3}`, http.StatusBadRequest},
		{"POST", "/v1/cap", `{}`, http.StatusBadRequest},
		{"POST", "/v1/cap", `{"cap_watts":0.5}`, http.StatusBadRequest},
		{"POST", "/v1/policy", `{"policy":"fifo"}`, http.StatusBadRequest},
		{"POST", "/v1/policy", `nope`, http.StatusBadRequest},
		{"GET", "/v1/jobs/job-999999", "", http.StatusNotFound},
		{"GET", "/v1/plan", "", http.StatusNotFound}, // no epoch yet
	}
	for _, c := range cases {
		var code int
		var body string
		if c.method == "POST" {
			code, body = postJSON(t, ts.URL+c.path, c.body)
		} else {
			code, body = get(t, ts.URL+c.path)
		}
		if code != c.want {
			t.Errorf("%s %s %s -> %d, want %d (%s)", c.method, c.path, c.body, code, c.want, body)
		}
		if code >= 400 && !strings.Contains(body, `"error"`) {
			t.Errorf("%s %s error body %q lacks error field", c.method, c.path, body)
		}
	}
}

// TestListPolicies checks GET /v1/policies returns the registered set
// and the active policy.
func TestListPolicies(t *testing.T) {
	s := newTestServer(t, nil)
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts.URL+"/v1/policies")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/policies -> %d: %s", code, body)
	}
	var got struct {
		Policies []policy.Info `json:"policies"`
		Active   string        `json:"active"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	names := make([]string, len(got.Policies))
	for i, info := range got.Policies {
		names[i] = info.Name
	}
	if want := policy.Names(); !reflect.DeepEqual(names, want) {
		t.Errorf("policies %v, want %v", names, want)
	}
	if got.Active != s.Policy() {
		t.Errorf("active %q, want %q", got.Active, s.Policy())
	}
	s.Drain()
	<-s.Drained()
}

// TestLiveCapAndPolicy changes the cap and policy over HTTP and checks
// the next epoch honours them.
func TestLiveCapAndPolicy(t *testing.T) {
	s := newTestServer(t, nil)
	s.Start(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, body := postJSON(t, ts.URL+"/v1/cap", `{"cap_watts":18}`); code != http.StatusOK {
		t.Fatalf("set cap -> %d: %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/cap"); code != http.StatusOK || !strings.Contains(body, "18") {
		t.Fatalf("get cap -> %d: %s", code, body)
	}
	if code, body := postJSON(t, ts.URL+"/v1/policy", `{"policy":"random"}`); code != http.StatusOK {
		t.Fatalf("set policy -> %d: %s", code, body)
	}

	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"heartwall"}`); code != http.StatusAccepted {
		t.Fatalf("submit -> %d: %s", code, body)
	}
	waitAllTerminal(t, s, 1, 60*time.Second)

	plan, ok := s.Plan()
	if !ok {
		t.Fatal("no plan")
	}
	if plan.Policy != "random" || plan.CapWatts != 18 {
		t.Errorf("plan %+v did not honour live settings", plan)
	}
	_, body := get(t, ts.URL+"/metrics")
	if v := metricValue(t, body, `corund_jobs_scheduled_total{policy="random"}`); v != 1 {
		t.Errorf("scheduled{random} %v, want 1", v)
	}
	if v := metricValue(t, body, "corund_power_cap_watts"); v != 18 {
		t.Errorf("cap gauge %v, want 18", v)
	}
	s.Drain()
	<-s.Drained()
}

// TestPolicyAliasesStoredCanonical checks that an alias or an odd
// spelling of a policy name is canonicalized once, on the way in: the
// server reports, plans under and labels its metrics with the
// canonical name only.
func TestPolicyAliasesStoredCanonical(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Policy = "HCSPlus" })
	if got := s.Policy(); got != "hcs+" {
		t.Errorf("New(Policy: HCSPlus) stored %q, want hcs+", got)
	}
	if err := s.SetPolicy(" Random "); err != nil {
		t.Fatal(err)
	}
	if got := s.Policy(); got != "random" {
		t.Errorf(`SetPolicy(" Random ") stored %q, want random`, got)
	}
	s.Start(context.Background())
	if _, err := s.Submit(mustSpec(t, "cfd")); err != nil {
		t.Fatal(err)
	}
	waitAllTerminal(t, s, 1, 60*time.Second)
	if plan, ok := s.Plan(); !ok || plan.Policy != "random" {
		t.Errorf("plan policy %q (ok %v), want random", plan.Policy, ok)
	}
	var mbody strings.Builder
	if err := s.WriteMetrics(&mbody); err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, mbody.String(), `corund_jobs_scheduled_total{policy="random"}`); v != 1 {
		t.Errorf("scheduled{random} %v, want 1", v)
	}
	if strings.Contains(mbody.String(), `policy=" Random "`) {
		t.Error("metrics carry the verbatim alias as a label")
	}
	s.Drain()
	<-s.Drained()
}

// TestConfigValidation covers New's rejection paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Policy: online.PolicyHCSPlus}); err == nil {
		t.Error("model policy without characterization accepted")
	}
	if _, err := New(Config{Policy: "fifo"}); err == nil {
		t.Error("unknown policy accepted")
	}
	if _, err := New(Config{Policy: online.PolicyRandom, Cap: 0.5}); err == nil {
		t.Error("infeasible cap accepted")
	}
	if _, err := New(Config{Policy: online.PolicyRandom, MaxQueue: -1}); err == nil {
		t.Error("negative queue bound accepted")
	}
	s, err := New(Config{Policy: online.PolicyRandom})
	if err != nil {
		t.Fatalf("random policy without characterization should work: %v", err)
	}
	if err := s.SetPolicy(online.PolicyHCS); err == nil {
		t.Error("switch to model policy without characterization accepted")
	}
	if err := s.SetCap(-1); err == nil {
		t.Error("negative cap accepted")
	}
}

func mustSpec(t *testing.T, program string) workload.JobSpec {
	t.Helper()
	s := workload.JobSpec{Program: program}
	s.Normalize()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}
