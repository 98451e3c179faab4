// Package cluster is the placement library that scales the
// co-scheduling runtime from one APU node to a fleet: arriving jobs
// are balanced across nodes by a Placer (placer.go, the pure scoring
// core shared with the live fleet coordinator in internal/fleet), and
// each node runs the online epoch scheduler under its own power cap.
//
// The paper motivates job co-scheduling as "a cheap (virtually free)
// way to significantly improve system throughput for shared servers,
// workstation clusters, and data centers"; this package is the cluster
// piece of that story. It also exposes the interaction between
// balancing and co-scheduling: a balancer that spreads complementary
// jobs apart starves each node's co-run pairing opportunities, so the
// affinity-aware policy groups CPU- and GPU-preferred work — and the
// headroom-aware policy extends that to uneven per-node power budgets.
//
// Scheduling policies are plain registry names (internal/policy), so
// any registered policy can serve the fleet's epochs.
package cluster

import (
	"fmt"
	"sort"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/policy"
	"corun/internal/units"
)

// Options configures a cluster run.
type Options struct {
	Cfg  *apu.Config
	Mem  *memsys.Model
	Char *model.Characterization

	// Nodes is the fleet size.
	Nodes int
	// CapPerNode is each node's package power cap.
	CapPerNode units.Watts
	// Balancer picks the placement policy.
	Balancer Balancer
	// Policy names each node's epoch scheduling policy in the
	// internal/policy registry (canonical name or alias); empty means
	// the registry's "hcs+".
	Policy string
	// Seed drives stochastic components.
	Seed int64
}

// NodeResult is one node's served outcome.
type NodeResult struct {
	Node   int
	Jobs   int
	Result *online.Result
}

// Result summarizes a cluster run.
type Result struct {
	PerNode []NodeResult
	// Done is when the last node finished.
	Done units.Seconds
	// MeanResponse averages over all jobs in the cluster.
	MeanResponse units.Seconds
	// TotalEnergyJ sums node energies.
	TotalEnergyJ float64
	// Imbalance is (max node finish - min node finish) / max: 0 is a
	// perfectly balanced fleet.
	Imbalance float64
}

// Serve balances the arrival stream across the fleet with a Placer and
// serves each node's share with the online scheduler.
func Serve(opts Options, arrivals []online.Arrival) (*Result, error) {
	if opts.Nodes <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", opts.Nodes)
	}
	if opts.Cfg == nil || opts.Mem == nil {
		return nil, fmt.Errorf("cluster: nil machine or memory model")
	}
	polName := opts.Policy
	if polName == "" {
		polName = online.PolicyHCSPlus
	}
	canonical, err := policy.Canonical(polName)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	placer, err := NewPlacer(opts.Balancer)
	if err != nil {
		return nil, err
	}

	perNode := make([][]online.Arrival, opts.Nodes)
	nodes := make([]NodeState, opts.Nodes)
	for n := range nodes {
		nodes[n].HeadroomW = float64(opts.CapPerNode)
	}

	sorted := append([]online.Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	cmax := opts.Cfg.MaxFreqIndex(apu.CPU)
	gmax := opts.Cfg.MaxFreqIndex(apu.GPU)
	for _, a := range sorted {
		hint := JobHint{
			CPUTimeS: float64(a.Prog.StandaloneTime(apu.CPU, opts.Cfg.Freq(apu.CPU, cmax), opts.Mem, a.Scale)),
			GPUTimeS: float64(a.Prog.StandaloneTime(apu.GPU, opts.Cfg.Freq(apu.GPU, gmax), opts.Mem, a.Scale)),
		}
		node, err := placer.Pick(hint, nodes)
		if err != nil {
			return nil, err
		}
		perNode[node] = append(perNode[node], a)
		// Fold the job into the winner's snapshot: its best solo time as
		// load, its device preference into the backlog mix.
		nodes[node].Load += hint.BestTimeS()
		nodes[node].BiasGPU += hint.BiasGPU()
	}

	res := &Result{}
	var sumResp, nJobs float64
	minDone, maxDone := -1.0, 0.0
	for n := 0; n < opts.Nodes; n++ {
		nodeRes, err := online.Serve(online.Options{
			Cfg: opts.Cfg, Mem: opts.Mem, Char: opts.Char,
			Cap: opts.CapPerNode, Policy: canonical, Seed: opts.Seed + int64(n),
		}, perNode[n])
		if err != nil {
			return nil, fmt.Errorf("cluster: node %d: %w", n, err)
		}
		res.PerNode = append(res.PerNode, NodeResult{Node: n, Jobs: len(perNode[n]), Result: nodeRes})
		res.TotalEnergyJ += nodeRes.EnergyJ
		for _, o := range nodeRes.Outcomes {
			sumResp += float64(o.Response())
			nJobs++
		}
		d := float64(nodeRes.Done)
		if d > maxDone {
			maxDone = d
		}
		if minDone < 0 || d < minDone {
			minDone = d
		}
		if nodeRes.Done > res.Done {
			res.Done = nodeRes.Done
		}
	}
	if nJobs > 0 {
		res.MeanResponse = units.Seconds(sumResp / nJobs)
	}
	if maxDone > 0 {
		res.Imbalance = (maxDone - minDone) / maxDone
	}
	return res, nil
}
