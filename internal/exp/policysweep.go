package exp

import (
	"fmt"
	"io"

	"corun/internal/core"
	"corun/internal/policy"
	"corun/internal/units"
	"corun/internal/workload"
)

// PolicyOutcome is one registered policy's run of the sweep batch.
// Predicted is 0 for a dispatcher, which makes no plan.
type PolicyOutcome struct {
	Policy    string        `json:"policy"`
	Predicted units.Seconds `json:"predicted_makespan_s"`
	Simulated units.Seconds `json:"simulated_makespan_s"`
	Error     string        `json:"error,omitempty"`
}

// PolicySweepResult compares every policy in the registry — the sweep
// enumerates the registry rather than a hand-maintained list, so a
// newly registered policy joins the comparison automatically.
type PolicySweepResult struct {
	N        int             `json:"n"`
	CapWatts float64         `json:"cap_watts"`
	Outcomes []PolicyOutcome `json:"outcomes"`
}

// PolicySweep runs a 6-job batch (small enough for the optimal bound)
// under every registered policy on one shared scheduling context:
// each planner's plan is evaluated on the model and executed, each
// dispatcher executes the batch directly. It reports predicted and
// simulated makespans.
func (s *Suite) PolicySweep() (*PolicySweepResult, error) {
	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud")
	if err != nil {
		return nil, err
	}
	const cap = units.Watts(15)
	cx, _, err := s.context(batch, cap)
	if err != nil {
		return nil, err
	}
	out := &PolicySweepResult{N: len(batch), CapWatts: float64(cap)}
	for _, name := range policy.Names() {
		oc := PolicyOutcome{Policy: name}
		if err := s.sweepOne(&oc, cx, batch, cap); err != nil {
			oc.Error = err.Error()
		}
		out.Outcomes = append(out.Outcomes, oc)
	}
	return out, nil
}

// sweepOne runs the batch under oc's policy and fills in its makespans.
func (s *Suite) sweepOne(oc *PolicyOutcome, cx *core.Context, batch []*workload.Instance, cap units.Watts) error {
	p, err := policy.Parse(oc.Policy)
	if err != nil {
		return err
	}
	opts := policy.Options{Seed: 7}
	if d, ok := p.(policy.Dispatcher); ok {
		res, err := d.Dispatch(s.execOptions(cap), batch, cx.Oracle, opts)
		if err != nil {
			return err
		}
		oc.Simulated = res.Makespan
		return nil
	}
	plan, err := policy.PlanWith(p, cx, opts)
	if err != nil {
		return err
	}
	if oc.Predicted, err = cx.PredictedMakespan(plan); err != nil {
		return err
	}
	res, err := cx.Execute(plan, batch, s.execOptions(cap))
	if err != nil {
		return err
	}
	oc.Simulated = res.Makespan
	return nil
}

// WriteText renders the sweep as a table.
func (r *PolicySweepResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%d jobs under a %gW cap, every registered policy:\n", r.N, r.CapWatts); err != nil {
		return err
	}
	for _, oc := range r.Outcomes {
		if oc.Error != "" {
			if _, err := fmt.Fprintf(w, "  %-10s error: %s\n", oc.Policy, oc.Error); err != nil {
				return err
			}
			continue
		}
		predicted := fmt.Sprintf("predicted %6.1fs", float64(oc.Predicted))
		if oc.Predicted == 0 {
			predicted = fmt.Sprintf("%-17s", "dispatched")
		}
		if _, err := fmt.Fprintf(w, "  %-10s %s  simulated %6.1fs\n",
			oc.Policy, predicted, float64(oc.Simulated)); err != nil {
			return err
		}
	}
	return nil
}
