// Package online builds an arrival-driven co-scheduling server on top
// of the batch machinery: jobs arrive over (simulated) time at a
// power-capped APU node, and the server repeatedly plans and executes
// co-schedules for whatever is queued.
//
// This is the "take effect online" operating mode the paper motivates
// in section III: the scheduler itself is cheap enough (< 0.1% of
// makespan) to re-run at every scheduling epoch. The server uses an
// epoch model — while one planned batch executes, newly arrived jobs
// queue; when the batch drains, the queue is re-planned — which is how
// non-preemptive accelerator queues behave in practice.
package online

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// The paper's serving policies, as registry names. Options.Policy
// takes any name registered in internal/policy (canonical or alias);
// these constants exist for the common cases.
const (
	// PolicyHCSPlus plans each epoch with HCS plus refinement.
	PolicyHCSPlus = "hcs+"
	// PolicyHCS plans with plain HCS.
	PolicyHCS = "hcs"
	// PolicyRandom dispatches each epoch with the Random baseline.
	PolicyRandom = "random"
	// PolicyDefault dispatches each epoch with the Default baseline.
	PolicyDefault = "default"
)

// Arrival is one job arriving at the server.
type Arrival struct {
	At    units.Seconds
	Prog  *kernelsim.Program
	Scale float64
	Label string
}

// EpochStats describes one completed scheduling epoch to a Hook.
type EpochStats struct {
	// Index counts epochs from 0.
	Index int
	// Clock is the server time at which the epoch started.
	Clock units.Seconds
	// Jobs is the epoch's batch size.
	Jobs int
	// Makespan is the epoch's simulated duration.
	Makespan units.Seconds
	// EnergyJ is the epoch's energy.
	EnergyJ float64
}

// Options configures the server.
type Options struct {
	Cfg  *apu.Config
	Mem  *memsys.Model
	Char *model.Characterization
	Cap  units.Watts
	// Domains are optional RAPL-style per-plane caps (PP0 = CPU cores,
	// PP1 = iGPU, Package tightens Cap) enforced during planning and
	// execution alongside Cap.
	Domains apu.DomainCaps

	// Policy names the per-epoch scheduling policy in the
	// internal/policy registry (canonical name or alias).
	Policy string
	// Seed drives the Random policy and refinement sampling.
	Seed int64

	// Planned, if set, observes each epoch's plan after scheduling but
	// before execution. plan is nil for a dispatcher (the Random and
	// Default baselines); predicted is the model's makespan estimate for
	// the planned schedule (0 without a plan). A daemon uses this to
	// expose in-flight state (job status, predicted finish) while the
	// epoch executes.
	Planned func(plan *core.Schedule, predicted units.Seconds)

	// Hook, if set, observes each completed epoch. Returning an error
	// aborts serving — together with ServeContext this is the
	// injectable step hook that lets a caller pace epochs in real or
	// accelerated time instead of running the stream to completion as
	// fast as possible.
	Hook func(EpochStats) error
}

// Validate checks the options themselves (not an arrival stream):
// machine and memory models must be present, the policy must be a
// registered one, a policy that reads the predictive model needs a
// characterization, and the cap must be non-negative.
func (o Options) Validate() error {
	_, err := o.resolve()
	return err
}

// resolve validates the options and returns their policy, resolved
// through the registry.
func (o Options) resolve() (policy.Policy, error) {
	if o.Cfg == nil || o.Mem == nil {
		return nil, fmt.Errorf("online: nil machine or memory model")
	}
	p, err := policy.Parse(o.Policy)
	if err != nil {
		return nil, err
	}
	if o.Cap < 0 {
		return nil, fmt.Errorf("online: negative power cap %v", o.Cap)
	}
	if err := o.Cfg.CheckCaps(o.Cap, o.Domains); err != nil {
		return nil, err
	}
	if policy.NeedsModel(p) && o.Char == nil {
		return nil, fmt.Errorf("online: model-based policies need a characterization")
	}
	return p, nil
}

// JobOutcome records one served job.
type JobOutcome struct {
	Label string
	// Arrived, Started, Finished are absolute server times; Started is
	// the epoch start (jobs wait for the running epoch to drain).
	Arrived  units.Seconds
	Started  units.Seconds
	Finished units.Seconds
}

// Response is the job's total time in the system.
func (j JobOutcome) Response() units.Seconds { return j.Finished - j.Arrived }

// Result summarizes a served arrival stream.
type Result struct {
	Outcomes []JobOutcome
	// Done is the time the last job finished.
	Done units.Seconds
	// Epochs is how many scheduling rounds ran.
	Epochs int
	// MeanResponse and MaxResponse summarize job latencies.
	MeanResponse units.Seconds
	MaxResponse  units.Seconds
	// EnergyJ is total energy across epochs.
	EnergyJ float64
}

// Serve runs the arrival stream to completion. It is ServeContext
// with a background context — no cancellation path.
func Serve(opts Options, arrivals []Arrival) (*Result, error) {
	return ServeContext(context.Background(), opts, arrivals)
}

// ServeContext runs the arrival stream to completion or until ctx is
// cancelled. Cancellation is checked between epochs: the in-flight
// epoch always completes (the simulated machine is non-preemptive),
// then serving stops with ctx.Err(). This is the cancellation path a
// draining daemon uses.
func ServeContext(ctx context.Context, opts Options, arrivals []Arrival) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(arrivals) == 0 {
		return &Result{}, nil
	}
	for i, a := range arrivals {
		if a.Prog == nil {
			return nil, fmt.Errorf("online: arrival %d has no program", i)
		}
		if a.Scale <= 0 {
			return nil, fmt.Errorf("online: arrival %d has scale %v", i, a.Scale)
		}
	}
	sorted := append([]Arrival(nil), arrivals...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	res := &Result{}
	clock := units.Seconds(0)
	next := 0
	rng := rand.New(rand.NewSource(opts.Seed))

	for next < len(sorted) {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		// Wait for work.
		if sorted[next].At > clock {
			clock = sorted[next].At
		}
		// Take everything that has arrived by now.
		var epoch []Arrival
		for next < len(sorted) && sorted[next].At <= clock {
			epoch = append(epoch, sorted[next])
			next++
		}
		batch := make([]*workload.Instance, len(epoch))
		for i, a := range epoch {
			batch[i] = &workload.Instance{ID: i, Prog: a.Prog, Scale: a.Scale, Label: a.Label}
		}

		ep, err := PlanEpoch(opts, batch, rng.Int63())
		if err != nil {
			return nil, err
		}
		simRes := ep.Result
		res.Epochs++
		res.EnergyJ += simRes.EnergyJ
		for _, c := range simRes.Completions {
			// Map the completion back to its arrival.
			a := epoch[c.Inst.ID]
			res.Outcomes = append(res.Outcomes, JobOutcome{
				Label:    a.Label,
				Arrived:  a.At,
				Started:  clock,
				Finished: clock + c.End,
			})
		}
		if opts.Hook != nil {
			stats := EpochStats{
				Index:    res.Epochs - 1,
				Clock:    clock,
				Jobs:     len(batch),
				Makespan: simRes.Makespan,
				EnergyJ:  simRes.EnergyJ,
			}
			if err := opts.Hook(stats); err != nil {
				return res, err
			}
		}
		clock += simRes.Makespan
		if clock > res.Done {
			res.Done = clock
		}
	}

	sum, max := 0.0, units.Seconds(0)
	for _, o := range res.Outcomes {
		r := o.Response()
		sum += float64(r)
		if r > max {
			max = r
		}
	}
	if len(res.Outcomes) > 0 {
		res.MeanResponse = units.Seconds(sum / float64(len(res.Outcomes)))
	}
	res.MaxResponse = max
	return res, nil
}

// Epoch is the outcome of one scheduling round: the plan (nil for a
// dispatcher), the model's predicted makespan for that plan (0 without
// one), and the ground-truth simulation result.
type Epoch struct {
	Plan      *core.Schedule
	Predicted units.Seconds
	Result    *sim.Result
}

// PlanEpoch schedules and executes one queued batch under the options'
// policy. Instance IDs in the batch must equal their indices. This is
// the building block a long-running daemon drives directly: it owns
// the queue and the clock, and calls PlanEpoch once per round.
//
// The policy resolves once through the registry. A policy that reads
// the model gets the batch's (memoized) predictive oracle; a
// dispatcher then executes the batch directly, and a planner's plan is
// evaluated on the model and executed.
func PlanEpoch(opts Options, batch []*workload.Instance, seed int64) (*Epoch, error) {
	p, err := opts.resolve()
	if err != nil {
		return nil, err
	}
	execOpts := core.ExecOptions{Cfg: opts.Cfg, Mem: opts.Mem, Cap: opts.Cap, Domains: opts.Domains}
	popts := policy.Options{Seed: seed}
	var pred core.Oracle
	if policy.NeedsModel(p) {
		if pred, err = epochOracle(opts, batch); err != nil {
			return nil, err
		}
	}
	if d, ok := p.(policy.Dispatcher); ok {
		if opts.Planned != nil {
			opts.Planned(nil, 0)
		}
		res, err := d.Dispatch(execOpts, batch, pred, popts)
		if err != nil {
			return nil, err
		}
		return &Epoch{Result: res}, nil
	}
	cx, err := core.NewContext(pred, opts.Cfg, opts.Cap)
	if err != nil {
		return nil, err
	}
	cx.Domains = opts.Domains // before the first query: the memos assume fixed caps
	plan, err := policy.PlanWith(p, cx, popts)
	if err != nil {
		return nil, err
	}
	predicted, err := cx.PredictedMakespan(plan)
	if err != nil {
		return nil, err
	}
	if opts.Planned != nil {
		opts.Planned(plan.Clone(), predicted)
	}
	res, err := cx.Execute(plan, batch, execOpts)
	if err != nil {
		return nil, err
	}
	return &Epoch{Plan: plan, Predicted: predicted, Result: res}, nil
}

// epochOracle assembles the epoch's predictive oracle: profile the
// batch, bind the profiles to the characterization, and wrap the
// result in the memoizing cache so repeated interpolation queries
// within the planning pass are answered once.
func epochOracle(opts Options, batch []*workload.Instance) (core.Oracle, error) {
	prof, err := profile.Collect(opts.Cfg, opts.Mem, batch)
	if err != nil {
		return nil, err
	}
	pred, err := model.NewPredictor(opts.Char, prof)
	if err != nil {
		return nil, err
	}
	return model.NewCachedPredictor(pred, opts.Cfg)
}

// GenerateArrivals produces a seeded arrival stream: n jobs drawn
// uniformly from the benchmark set with exponential-ish inter-arrival
// gaps of the given mean (seconds) and input scales in [0.8, 1.3].
func GenerateArrivals(n int, meanGap float64, seed int64) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("online: need at least one arrival")
	}
	if meanGap < 0 {
		return nil, fmt.Errorf("online: negative mean gap")
	}
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	out := make([]Arrival, n)
	t := 0.0
	for i := range out {
		name := names[rng.Intn(len(names))]
		prog, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		out[i] = Arrival{
			At:    units.Seconds(t),
			Prog:  prog,
			Scale: 0.8 + 0.5*rng.Float64(),
			Label: fmt.Sprintf("%s@%d", name, i),
		}
		t += rng.ExpFloat64() * meanGap
	}
	return out, nil
}
