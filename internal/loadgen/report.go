package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// benchIndex stamps the report with the bench-trajectory index of the
// harness's current schema; BENCH_<benchIndex>.json is the canonical
// output name. Bumped to 7 when the multi-tenant mix and per-tenant
// latency sections were added, to 9 for the sharded, async-commit
// serving path (single-node throughput is measured against the
// batched-fsync journal writer from 9 on), and to 10 when the server
// stats grew the per-plane watts, temperature, throttle count, and
// binding-constraint fields of the power-domain model. Fleet runs (the
// harness pointed at a corund -coordinator) stamp benchIndexFleet
// instead — they answer a different question (fleet scaling vs
// single-node serving cost), so they get their own trajectory slot.
const (
	benchIndex      = 10
	benchIndexFleet = 8
)

// RunConfig echoes the harness configuration into the report so a
// future run can be compared like-for-like.
type RunConfig struct {
	BaseURL      string  `json:"base_url"`
	Mode         string  `json:"mode"`
	RateRPS      float64 `json:"rate_rps,omitempty"`
	Concurrency  int     `json:"concurrency,omitempty"`
	WarmupS      float64 `json:"warmup_s"`
	DurationS    float64 `json:"duration_s"`
	MeasuredS    float64 `json:"measured_s"`
	Mix          string  `json:"mix"`
	Tenants      string  `json:"tenants,omitempty"`
	ReadFraction float64 `json:"read_fraction"`
	Seed         int64   `json:"seed"`

	// Policy, HostCPUs, and GOGC disclose the conditions a self-hosted
	// run measured under — the harness fills them in so a throughput
	// headline cannot silently hide the epoch policy it ran with or the
	// core count the daemon, clients, and scheduler time-shared.
	Policy   string `json:"policy,omitempty"`
	HostCPUs int    `json:"host_cpus,omitempty"`
	GOGC     string `json:"gogc,omitempty"`
}

// EndpointReport is one endpoint's measurement window: successful
// requests, errors, and latency quantiles from the log-bucketed
// histogram (conservative and monotone: p50 ≤ p90 ≤ p99 ≤ p999).
type EndpointReport struct {
	Count  uint64  `json:"count"`
	Errors uint64  `json:"errors"`
	MeanMs float64 `json:"mean_ms,omitempty"`
	P50Ms  float64 `json:"p50_ms,omitempty"`
	P90Ms  float64 `json:"p90_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
	P999Ms float64 `json:"p999_ms,omitempty"`
	MaxMs  float64 `json:"max_ms,omitempty"`
}

// TenantReport is one tenant's measurement window: its configured
// share of the offered mix, the priority its submissions carried, the
// accept/reject split, and the ack-latency quantiles — the per-tenant
// answer to "who got in, and how long did they wait".
type TenantReport struct {
	Share    float64 `json:"share"`
	Priority string  `json:"priority"`
	Accepted uint64  `json:"accepted"`
	Rejected uint64  `json:"rejected"`
	MeanMs   float64 `json:"mean_ms,omitempty"`
	P50Ms    float64 `json:"p50_ms,omitempty"`
	P90Ms    float64 `json:"p90_ms,omitempty"`
	P99Ms    float64 `json:"p99_ms,omitempty"`
	P999Ms   float64 `json:"p999_ms,omitempty"`
	MaxMs    float64 `json:"max_ms,omitempty"`
}

// ServerStats is the daemon's own accounting over the measurement
// window, scraped from /metrics: counter deltas plus final gauges.
type ServerStats struct {
	Epochs         float64 `json:"epochs_planned"`
	JobsSubmitted  float64 `json:"jobs_submitted"`
	JobsDone       float64 `json:"jobs_done"`
	JobsRejected   float64 `json:"jobs_rejected"`
	JournalAppends float64 `json:"journal_appends"`
	JournalFsyncs  float64 `json:"journal_fsyncs"`
	JournalBytes   float64 `json:"journal_bytes"`
	QueueDepth     float64 `json:"queue_depth"`
	SimClockS      float64 `json:"sim_clock_s"`

	// The power-domain view of the run: the last epoch's per-plane
	// watts and peak temperature, throttle events over the window, and
	// which constraint (none | pp0 | pp1 | package | thermal) bound the
	// final epoch. Zero/empty against daemons predating the domain
	// model.
	PP0Watts          float64 `json:"pp0_watts,omitempty"`
	PP1Watts          float64 `json:"pp1_watts,omitempty"`
	TempC             float64 `json:"temp_celsius,omitempty"`
	Throttles         float64 `json:"throttle_events,omitempty"`
	BindingConstraint string  `json:"binding_constraint,omitempty"`
}

// FleetNodeReport is one node's share of a fleet run, read from the
// coordinator's GET /v1/nodes after the measurement window.
type FleetNodeReport struct {
	ID            string  `json:"id"`
	Healthy       bool    `json:"healthy"`
	Routed        uint64  `json:"routed"`
	PlacedCPUPref uint64  `json:"placed_cpu_pref"`
	PlacedGPUPref uint64  `json:"placed_gpu_pref"`
	CapShareWatts float64 `json:"cap_share_watts"`
	// OneSidedFraction is max(cpu,gpu)/(cpu+gpu) of the node's placed
	// mix: 0.5 is a perfectly balanced co-run diet, 1.0 is a node fed
	// only one kind of work (no pairing opportunities).
	OneSidedFraction float64 `json:"one_sided_fraction"`
}

// FleetReport is the fleet-level section of a bench-8 report: how the
// coordinator spread the measured load, plus the throughput ratio
// against the embedded single-node baseline when one was run.
type FleetReport struct {
	Nodes       int     `json:"nodes"`
	Balancer    string  `json:"balancer"`
	BudgetWatts float64 `json:"budget_watts"`
	// HostCPUs qualifies a self-hosted run's speedup figure: every
	// node, the coordinator, and the load clients time-share this many
	// cores, so a fleet cannot beat the baseline's aggregate throughput
	// unless HostCPUs comfortably exceeds the node count. On a 1-CPU
	// host the speedup measures coordination overhead, not scaling.
	HostCPUs int               `json:"host_cpus,omitempty"`
	PerNode  []FleetNodeReport `json:"per_node"`
	// MaxOneSidedFraction is the worst node's OneSidedFraction — the
	// fragmentation headline (≤0.6 means no node was starved of co-run
	// pairings under the mixed workload).
	MaxOneSidedFraction float64 `json:"max_one_sided_fraction"`
	SpeedupVsBaseline   float64 `json:"speedup_vs_baseline,omitempty"`
}

// Report is the harness's machine-readable output (BENCH_7.json, or
// BENCH_8.json for fleet runs).
type Report struct {
	Bench       int       `json:"bench"`
	GeneratedBy string    `json:"generated_by"`
	Config      RunConfig `json:"config"`

	// ThroughputRPS counts every successful measured request;
	// SubmitThroughputRPS only acknowledged submissions.
	ThroughputRPS       float64 `json:"throughput_rps"`
	SubmitThroughputRPS float64 `json:"submit_throughput_rps"`
	Accepted            uint64  `json:"accepted"`
	Rejected            uint64  `json:"rejected"`
	Errors              uint64  `json:"errors"`
	Dropped             uint64  `json:"dropped,omitempty"`

	Endpoints map[string]EndpointReport `json:"endpoints"`
	Tenants   map[string]TenantReport   `json:"tenants,omitempty"`
	Server    *ServerStats              `json:"server,omitempty"`

	// Fleet and Baseline are set on fleet runs: the coordinator's
	// placement evidence and the paired single-node run the speedup is
	// measured against (same machine, same harness, same mix).
	Fleet    *FleetReport `json:"fleet,omitempty"`
	Baseline *Report      `json:"baseline,omitempty"`
}

// AttachFleet turns the report into a fleet-trajectory report: the
// fleet section is attached, the speedup against the baseline (when
// present) is computed, and the bench index moves to the fleet slot.
func (r *Report) AttachFleet(f *FleetReport, baseline *Report) {
	r.Fleet = f
	r.Baseline = baseline
	r.Bench = benchIndexFleet
	if baseline != nil && baseline.ThroughputRPS > 0 {
		f.SpeedupVsBaseline = round3(r.ThroughputRPS / baseline.ThroughputRPS)
	}
}

// FleetSnapshot reads the coordinator's GET /v1/nodes into a
// FleetReport — the per-node placement evidence (admitted counts,
// CPU/GPU mix, power shares) a fleet bench attaches to its report.
func FleetSnapshot(ctx context.Context, client *http.Client, baseURL string) (*FleetReport, error) {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/nodes", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: %s/v1/nodes -> %d (not a fleet coordinator?)", baseURL, resp.StatusCode)
	}
	var view struct {
		Balancer string `json:"balancer"`
		Nodes    []struct {
			ID            string  `json:"id"`
			Healthy       bool    `json:"healthy"`
			Routed        uint64  `json:"routed"`
			PlacedCPUPref uint64  `json:"placed_cpu_pref"`
			PlacedGPUPref uint64  `json:"placed_gpu_pref"`
			CapShareWatts float64 `json:"cap_share_watts"`
		} `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return nil, fmt.Errorf("loadgen: decoding /v1/nodes: %w", err)
	}
	f := &FleetReport{Nodes: len(view.Nodes), Balancer: view.Balancer}
	for _, n := range view.Nodes {
		nr := FleetNodeReport{
			ID:            n.ID,
			Healthy:       n.Healthy,
			Routed:        n.Routed,
			PlacedCPUPref: n.PlacedCPUPref,
			PlacedGPUPref: n.PlacedGPUPref,
			CapShareWatts: n.CapShareWatts,
		}
		if total := n.PlacedCPUPref + n.PlacedGPUPref; total > 0 {
			worst := n.PlacedCPUPref
			if n.PlacedGPUPref > worst {
				worst = n.PlacedGPUPref
			}
			nr.OneSidedFraction = round3(float64(worst) / float64(total))
		}
		if nr.OneSidedFraction > f.MaxOneSidedFraction {
			f.MaxOneSidedFraction = nr.OneSidedFraction
		}
		f.PerNode = append(f.PerNode, nr)
	}
	return f, nil
}

// Write renders the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
