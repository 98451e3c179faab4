package main

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"corun/internal/promtext"
)

const exposition = `# HELP corund_jobs_done_total Jobs that finished executing.
# TYPE corund_jobs_done_total counter
corund_jobs_done_total 1234
corund_binding_constraint{constraint="thermal"} 1
corund_journal_append_latency_seconds{quantile="0.99"} 0.0021
corund_queue_depth 7

`

func TestParseMetrics(t *testing.T) {
	s, err := parseMetrics(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	for series, want := range map[string]float64{
		"corund_jobs_done_total":                                 1234,
		`corund_binding_constraint{constraint="thermal"}`:        1,
		`corund_journal_append_latency_seconds{quantile="0.99"}`: 0.0021,
		"corund_queue_depth":                                     7,
	} {
		if got, err := s.get(series); err != nil || got != want {
			t.Errorf("%s = %v, %v; want %v", series, got, err, want)
		}
	}
	if len(s) != 4 {
		t.Errorf("parsed %d series, want 4", len(s))
	}
	if _, err := s.get("corund_absent"); err == nil {
		t.Error("absent series: want an error")
	}
	if _, err := parseMetrics(strings.NewReader("corund_up one\n")); err == nil {
		t.Error("malformed value: want an error")
	}
}

func TestDelta(t *testing.T) {
	pre := scrape{"a": 10}
	post := scrape{"a": 25, "b": 1}
	if d, err := delta(pre, post, "a"); err != nil || d != 15 {
		t.Errorf("delta a = %v, %v", d, err)
	}
	if _, err := delta(pre, post, "b"); err == nil {
		t.Error("series missing before: want an error")
	}
}

// TestHistQuantileRoundTrip renders a promtext histogram, the type the
// daemon exposes, and reads quantiles of the observations added between
// two scrapes.
func TestHistQuantileRoundTrip(t *testing.T) {
	reg := promtext.NewRegistry()
	h := reg.NewHistogram("lat_seconds", "test", []float64{0.001, 0.01, 0.1})
	render := func() scrape {
		var b bytes.Buffer
		if err := reg.Write(&b); err != nil {
			t.Fatal(err)
		}
		s, err := parseMetrics(&b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for i := 0; i < 50; i++ {
		h.Observe(0.0005) // before the window: must not count
	}
	pre := render()
	for i := 0; i < 100; i++ {
		h.Observe(0.005) // all in (0.001, 0.01]
	}
	for i := 0; i < 100; i++ {
		h.Observe(0.05) // all in (0.01, 0.1]
	}
	post := render()
	v, n, err := histQuantile(pre, post, "lat_seconds", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n != 200 {
		t.Errorf("observations = %v, want 200", n)
	}
	if math.Abs(v-0.01) > 1e-12 { // the 100th of 200 sits at the top of (0.001, 0.01]
		t.Errorf("p50 = %v, want 0.01", v)
	}
	v, _, _ = histQuantile(pre, post, "lat_seconds", 0.75)
	if want := 0.01 + (0.1-0.01)*0.5; math.Abs(v-want) > 1e-12 {
		t.Errorf("p75 = %v, want %v", v, want)
	}
	h.Observe(5) // +Inf bucket
	for i := 0; i < 300; i++ {
		h.Observe(5)
	}
	if v, _, _ := histQuantile(pre, render(), "lat_seconds", 0.99); v != 0.1 {
		t.Errorf("p99 in the +Inf bucket = %v, want the highest finite bound 0.1", v)
	}
	if _, _, err := histQuantile(pre, pre, "lat_seconds", 0.5); err == nil {
		t.Error("no new observations: want an error")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name holds a space and a ')' to check fields are
	// counted from the last ')'. utime=250, stime=50 ticks.
	stat := "4242 (co run) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 50 0 0 20 0 7 0 100 1000000 500 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Error("truncated stat: want an error")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tcorund\nVmPeak:\t 1000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 10240 kB\n"
	kb, err := parseStatusKB(strings.NewReader(status), "VmHWM")
	if err != nil || kb != 20480 {
		t.Errorf("VmHWM = %v, %v; want 20480", kb, err)
	}
	if _, err := parseStatusKB(strings.NewReader(status), "VmSwap"); err == nil {
		t.Error("absent key: want an error")
	}
}

func TestProcSelf(t *testing.T) {
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Errorf("procCPU(self): %v", err)
	}
	if mb, err := selfPeakRSS(); err != nil || mb <= 0 {
		t.Errorf("selfPeakRSS = %v, %v", mb, err)
	}
}
