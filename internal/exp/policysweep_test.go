package exp

import (
	"testing"

	"corun/internal/core"
	"corun/internal/policy"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// The sweep has one error-free row per registered policy, in registry
// order. A planner's row carries a prediction; a dispatcher's row has
// none and equals, bit for bit, a direct run of the paper's baseline.
func TestPolicySweepCoversRegistry(t *testing.T) {
	s := testSuite(t)
	r, err := s.PolicySweep()
	if err != nil {
		t.Fatal(err)
	}
	names := policy.Names()
	if len(r.Outcomes) != len(names) {
		t.Fatalf("%d rows for %d registered policies", len(r.Outcomes), len(names))
	}

	batch, err := workload.Subset("streamcluster", "cfd", "dwt2d", "hotspot", "srad", "lud")
	if err != nil {
		t.Fatal(err)
	}
	const cap = units.Watts(15)
	cx, _, err := s.context(batch, cap)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := core.ExecuteRandom(s.execOptions(cap), batch, 7, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	def, err := core.ExecuteDefault(s.execOptions(cap), batch, cx.Oracle, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]units.Seconds{"random": rnd.Makespan, "default": def.Makespan}

	for i, oc := range r.Outcomes {
		if oc.Policy != names[i] {
			t.Errorf("row %d is %q, want %q", i, oc.Policy, names[i])
		}
		if oc.Error != "" || oc.Simulated <= 0 {
			t.Errorf("%s: error %q, simulated %v", oc.Policy, oc.Error, oc.Simulated)
			continue
		}
		if want, ok := direct[oc.Policy]; ok {
			if oc.Predicted != 0 || oc.Simulated != want {
				t.Errorf("%s: predicted %v, simulated %v; want 0 and the direct run's %v",
					oc.Policy, oc.Predicted, oc.Simulated, want)
			}
		} else if oc.Predicted <= 0 {
			t.Errorf("%s: planner row has no prediction", oc.Policy)
		}
	}
}
