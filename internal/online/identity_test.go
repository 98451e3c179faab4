package online

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/model"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/units"
)

// classless hides an oracle's degradation classes and keeps everything
// else, so every memo above it keys on job indices.
type classless struct{ model.Oracle }

func (c classless) CoRunSplit(i, f, j, g int) apu.PowerSplit {
	return c.Oracle.(model.DomainOracle).CoRunSplit(i, f, j, g)
}

// Keying the memos by degradation class must be invisible: the plan
// and the predicted makespan of a served epoch equal, bit for bit,
// planning the same batch over the same predictor with its classes
// hidden. Covers hcs+ at n=8 and n=64, the exhaustive optimal search
// at n=8, and a plane-capped machine.
func TestClassKeyedPlanningTransparent(t *testing.T) {
	cases := []struct {
		name    string
		policy  Policy
		n       int
		domains apu.DomainCaps
	}{
		{"hcs+/n=8", PolicyHCSPlus, 8, apu.DomainCaps{}},
		{"hcs+/n=64", PolicyHCSPlus, 64, apu.DomainCaps{}},
		{"hcs+/n=64/planes", PolicyHCSPlus, 64, apu.DomainCaps{PP0: 8, PP1: 9}},
		{"optimal/n=8", "optimal", 8, apu.DomainCaps{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(t, tc.policy)
			opts.Domains = tc.domains
			batch := seededBatch(t, tc.n, int64(tc.n))
			const seed = 7

			ep, err := PlanEpoch(opts, batch, seed)
			if err != nil {
				t.Fatal(err)
			}

			prof, err := profile.Collect(opts.Cfg, opts.Mem, batch)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := model.NewPredictor(opts.Char, prof)
			if err != nil {
				t.Fatal(err)
			}
			if cls := pred.DegradationClasses(); slices.Max(cls)+1 == len(cls) {
				t.Fatalf("batch has one class per job (%v); the test would compare nothing", cls)
			}
			cached, err := model.NewCachedPredictor(classless{pred}, opts.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			cx, err := core.NewContext(cached, opts.Cfg, opts.Cap)
			if err != nil {
				t.Fatal(err)
			}
			cx.Domains = opts.Domains
			plan, err := policy.Plan(string(tc.policy), cx, policy.Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			predicted, err := cx.PredictedMakespan(plan)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(ep.Plan, plan) {
				t.Errorf("class-keyed plan %v, job-keyed plan %v", ep.Plan, plan)
			}
			bits := func(s units.Seconds) uint64 { return math.Float64bits(float64(s)) }
			if bits(ep.Predicted) != bits(predicted) {
				t.Errorf("class-keyed predicted makespan %v, job-keyed %v", ep.Predicted, predicted)
			}
		})
	}
}
