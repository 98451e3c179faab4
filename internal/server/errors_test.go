package server

// Pinning tests for the API's error-response contract: every error
// body on the JSON API is application/json and decodes to
// {"error": ...} (readiness uses {"status": ...}), including the shed
// paths (429, 503) and — the case that used to regress — the
// TimeoutHandler's 503, which is written outside the handlers' own
// WriteJSON path.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"corun/internal/fault"
)

// checkJSONError asserts one error response carries the JSON
// Content-Type and a JSON object body with the given key. It returns
// the decoded body so callers can assert additional fields (the 429
// body also names the exhausted bound).
func checkJSONError(t *testing.T, name string, h http.Header, body, key string) map[string]any {
	t.Helper()
	if ct := h.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s: Content-Type %q, want application/json", name, ct)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Errorf("%s: body is not a JSON object: %v (%q)", name, err, body)
		return nil
	}
	if s, _ := m[key].(string); s == "" {
		t.Errorf("%s: body %q missing %q", name, body, key)
	}
	return m
}

func TestErrorResponsesAreJSON(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxQueue = 1
		c.RequestTimeout = 5 * time.Second
	})
	// Not started: admitted jobs stay queued, so the second submission
	// hits the queue bound deterministically.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (int, http.Header, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, string(b)
	}

	// 400: invalid spec.
	code, h, body := postRaw(t, ts.URL+"/v1/jobs", `{"program":"nosuch"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("bad spec -> %d: %s", code, body)
	}
	checkJSONError(t, "400 bad spec", h, body, "error")

	// 404: unknown job.
	code, h, body = get("/v1/jobs/job-999999")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job -> %d: %s", code, body)
	}
	checkJSONError(t, "404 unknown job", h, body, "error")

	// 404: no plan yet.
	code, h, body = get("/v1/plan")
	if code != http.StatusNotFound {
		t.Fatalf("no plan -> %d: %s", code, body)
	}
	checkJSONError(t, "404 no plan", h, body, "error")

	// 429: queue full (MaxQueue=1, scheduler not running).
	if code, body := postJSON(t, ts.URL+"/v1/jobs", `{"program":"cfd"}`); code != http.StatusAccepted {
		t.Fatalf("first submit -> %d: %s", code, body)
	}
	code, h, body = postRaw(t, ts.URL+"/v1/jobs", `{"program":"cfd"}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue full -> %d: %s", code, body)
	}
	m := checkJSONError(t, "429 queue full", h, body, "error")
	if h.Get("Retry-After") == "" {
		t.Error("429 queue full: no Retry-After")
	}
	// The body names the exhausted bound: MaxQueue=1 is the global one
	// here, hit by the default tenant.
	if m["bound"] != "global" || m["tenant"] != "default" || m["limit"] != float64(1) {
		t.Errorf("429 body missing bound details: %v", m)
	}

	// 503: draining, on both submission and readiness.
	s.markDraining()
	code, h, body = postRaw(t, ts.URL+"/v1/jobs", `{"program":"cfd"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit -> %d: %s", code, body)
	}
	checkJSONError(t, "503 draining submit", h, body, "error")
	code, h, body = get("/readyz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz -> %d: %s", code, body)
	}
	checkJSONError(t, "503 draining readyz", h, body, "status")
}

// TestTimeoutErrorIsJSON pins the TimeoutHandler path: a request that
// overruns Config.RequestTimeout gets a 503 whose body is JSON *and*
// says so in its Content-Type. TimeoutHandler writes that body itself,
// bypassing WriteJSON, so the type is asserted separately here.
func TestTimeoutErrorIsJSON(t *testing.T) {
	reg := fault.NewRegistry()
	s := newTestServer(t, func(c *Config) {
		c.Faults = reg
		c.RequestTimeout = 20 * time.Millisecond
	})
	if err := reg.Arm(fault.Rule{Site: SiteAdmit, Kind: fault.KindLatency, Delay: 500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	defer func() {
		s.Drain()
		<-s.Drained()
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, h, body := postRaw(t, ts.URL+"/v1/jobs", `{"program":"cfd"}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out submit -> %d: %s", code, body)
	}
	checkJSONError(t, "503 timeout", h, body, "error")

	// Success responses keep their own Content-Type: the CSV trace
	// must not be forced to JSON by the timeout wrapper's default.
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
		t.Errorf("/v1/trace Content-Type %q, want text/csv", ct)
	}
}
