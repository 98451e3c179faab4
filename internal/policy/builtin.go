package policy

import (
	"corun/internal/core"
	"corun/internal/sim"
	"corun/internal/workload"
)

// planner is the registry's builtin Planner: a named plan function.
// Custom policies outside this package implement Planner or
// Dispatcher directly.
type planner struct {
	name string
	desc string
	plan func(cx *core.Context, opts Options) (*core.Schedule, error)
}

func (p *planner) Name() string     { return p.name }
func (p *planner) Describe() string { return p.desc }
func (p *planner) Plan(cx *core.Context, opts Options) (*core.Schedule, error) {
	return p.plan(cx, opts)
}

// dispatcher is the registry's builtin Dispatcher: a named run
// function, plus whether it reads the predictive model.
type dispatcher struct {
	name  string
	desc  string
	model bool
	run   func(exec core.ExecOptions, batch []*workload.Instance, o core.Oracle, opts Options) (*sim.Result, error)
}

func (d *dispatcher) Name() string     { return d.name }
func (d *dispatcher) Describe() string { return d.desc }
func (d *dispatcher) NeedsModel() bool { return d.model }
func (d *dispatcher) Dispatch(exec core.ExecOptions, batch []*workload.Instance, o core.Oracle, opts Options) (*sim.Result, error) {
	return d.run(exec, batch, o, opts)
}

// The paper's policy family registers at init; adding a policy is one
// Register call (typically from the new policy's own file).
func init() {
	Register(&planner{
		name: "hcs",
		desc: "heuristic co-scheduling (section IV-A): partition, categorize, greedy plan",
		plan: func(cx *core.Context, opts Options) (*core.Schedule, error) {
			return cx.HCS(opts.HCS)
		},
	})
	Register(&planner{
		name: "hcs+",
		desc: "HCS plus the post local refinement (section IV-A.3)",
		plan: func(cx *core.Context, opts Options) (*core.Schedule, error) {
			s, _, err := cx.HCSPlus(opts.HCS, core.RefineOptions{Seed: opts.Seed})
			return s, err
		},
	}, "hcsplus")
	Register(&planner{
		name: "optimal",
		desc: "exhaustive optimal-makespan search (validation; at most 8 jobs)",
		plan: func(cx *core.Context, opts Options) (*core.Schedule, error) {
			s, _, err := cx.OptimalScheduleOpts(core.OptimalOptions{Workers: opts.Workers})
			return s, err
		},
	})
	Register(&planner{
		name: "anneal",
		desc: "simulated annealing over the schedule space, seeded by HCS",
		plan: func(cx *core.Context, opts Options) (*core.Schedule, error) {
			seed, err := cx.HCS(opts.HCS)
			if err != nil {
				return nil, err
			}
			s, _, err := cx.Anneal(seed, core.AnnealOptions{Seed: opts.Seed})
			return s, err
		},
	})
	Register(&planner{
		name: "genetic",
		desc: "evolutionary search over the schedule space, seeded by HCS",
		plan: func(cx *core.Context, opts Options) (*core.Schedule, error) {
			// The HCS seed joins the initial population when feasible;
			// the search stands alone when it is not.
			gopts := core.GeneticOptions{Seed: opts.Seed, Workers: opts.Workers}
			if seed, err := cx.HCS(opts.HCS); err == nil {
				gopts.SeedSchedule = seed
			}
			s, _, err := cx.Genetic(gopts)
			return s, err
		},
	}, "metaheuristic")
	// The paper's baselines (section VI-A) dispatch at run time, with
	// the cap enforced by the GPU-biased reactive governor as in its
	// comparison. Random reads no model, so it needs neither a
	// characterization nor a profiling pass.
	Register(&dispatcher{
		name: "random",
		desc: "Random baseline (section VI-A), dispatched at run time: an idle device takes a random remaining job or waits; GPU-biased governor",
		run: func(exec core.ExecOptions, batch []*workload.Instance, _ core.Oracle, opts Options) (*sim.Result, error) {
			return core.ExecuteRandom(exec, batch, opts.Seed, sim.GPUBiased)
		},
	})
	Register(&dispatcher{
		name:  "default",
		desc:  "Default baseline (section VI-A), dispatched at run time: ranking partition, CPU multiprogramming; GPU-biased governor",
		model: true,
		run: func(exec core.ExecOptions, batch []*workload.Instance, o core.Oracle, _ Options) (*sim.Result, error) {
			return core.ExecuteDefault(exec, batch, o, sim.GPUBiased)
		},
	}, "default-gpu")
}
