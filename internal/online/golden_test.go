package online

import (
	"fmt"
	"math"
	"testing"

	"corun/internal/apu"
)

// TestPlanGolden pins served epochs to values recorded before the
// planner's hot path was reworked: the plan, and the bits of the
// predicted makespan, the simulated makespan and the energy. The
// identity tests compare one version of the planner against itself;
// this one compares it against that earlier planner. All cases run
// under a 15 W cap and a 45 °C trip point. Batch seed 6 at n=8 puts
// jobs 2, 3 and 4 in S_seq, so the exclusive path is covered.
func TestPlanGolden(t *testing.T) {
	cases := []struct {
		name      string
		policy    Policy
		n         int
		batchSeed int64
		domains   apu.DomainCaps

		plan                        string
		predicted, makespan, energy uint64
	}{
		{"hcs+/n=8", PolicyHCSPlus, 8, 6, apu.DomainCaps{},
			"CPU:[7] GPU:[5 1 6 0 3! 4! 2!]",
			0x40671e1b7548580f, 0x407025a602e8bfd1, 0x40a33824c11dd329},
		{"hcs+/n=64", PolicyHCSPlus, 64, 64, apu.DomainCaps{},
			"CPU:[3 62 23 26 25 32 37 43 46 55 31 24 42 53 7] GPU:[45 6 10 14 34 38 41 44 50 59 36 39 40 56 13 19 20 33 63 49 0 4 8 16 17 21 60 11 12 61 27 1 18 22 28 47 51 52 57 54 2 5 9 29 30 35 48 58 15]",
			0x4095ffaeae631f4a, 0x40a22e4d9b050c30, 0x40d2a4f0834bfcbb},
		{"hcs+/n=64/planes", PolicyHCSPlus, 64, 64, apu.DomainCaps{PP0: 8, PP1: 9},
			"CPU:[3 7 23 25 26 32 37 43 46 55 62 33 13 53 15 17 24 42 50] GPU:[31 6 10 14 34 38 41 44 20 59 12 39 47 61 11 19 63 40 45 49 0 4 8 16 56 21 60 36 1 18 22 57 28 51 54 29 27 2 5 9 30 35 48 58 52]",
			0x409845eb66530408, 0x40a24bfc8f1e25c4, 0x40d3fa6088c5609b},
		{"optimal/n=8", "optimal", 8, 6, apu.DomainCaps{},
			"CPU:[7] GPU:[1 3 4 6 2 0 5]",
			0x4067181f4187314d, 0x407106289e3d59fb, 0x40a302aa4594f2a4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions(t, tc.policy)
			tp := opts.Cfg.Thermal
			tp.TMaxC = 45
			opts.Cfg = opts.Cfg.WithThermal(tp)
			opts.Domains = tc.domains
			ep, err := PlanEpoch(opts, seededBatch(t, tc.n, tc.batchSeed), 7)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%q, %#x, %#x, %#x", ep.Plan.String(),
				math.Float64bits(float64(ep.Predicted)),
				math.Float64bits(float64(ep.Result.Makespan)),
				math.Float64bits(ep.Result.EnergyJ))
			want := fmt.Sprintf("%q, %#x, %#x, %#x", tc.plan, tc.predicted, tc.makespan, tc.energy)
			if got != want {
				t.Errorf("plan, predicted, makespan, energy:\n got %s\nwant %s", got, want)
			}
		})
	}
}
