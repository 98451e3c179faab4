package online

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestDispatchGolden pins the served dispatcher epochs to values
// recorded before random and default became registry dispatchers: the
// completion order (job ID and device initial), and the bits of the
// simulated makespan and energy. All cases run under a 15 W cap and a
// 45 °C trip point with epoch seed 7. Random reads no model, so its
// cases run without a characterization.
func TestDispatchGolden(t *testing.T) {
	cases := []struct {
		policy    string
		n         int
		batchSeed int64

		order            string
		makespan, energy uint64
	}{
		{PolicyRandom, 8, 6,
			"6G 2G 4G 7C 3G 5G 1G 0C",
			0x40723b7f191e2d6f, 0x40a51e1c2b6718ec},
		{PolicyRandom, 64, 64,
			"30G 9G 54G 59G 47C 8G 49G 35G 51G 31C 38G 15G 21G 60C 1G 25C 23G 7G 41C 10G 56G 57C 26G 58G 33G 50G 44C 43G 19C 39C 55G 22G 53G 45G 12C 6G 46G 17C 28G 36G 40G 16C 32G 27G 0G 52C 14G 34G 24C 4G 20G 42C 63G 62G 61G 18C 5G 13G 2C 37G 11C 3G 29G 48C",
			0x40a8a28ed30ef749, 0x40da145d536b3e62},
		{PolicyDefault, 8, 6,
			"2G 3G 4G 1G 0G 7C 6C 5C",
			0x40785cb6c116a2a0, 0x40ab19fc931aa10a},
		{PolicyDefault, 64, 64,
			"2G 5G 9G 29G 30G 35G 48G 58G 61G 63G 41G 6G 10G 14G 34G 38G 44G 50G 59G 0G 4G 17G 21G 8G 16G 60G 13G 20G 31G 45G 19G 49G 28G 52G 1G 18G 22G 54G 3C 37C 7C 62C 32C 23C 26C 46C 53C 25C 55C 43C 39C 42C 24C 33C 11C 56C 27C 40C 57C 12C 15C 47C 51C 36C",
			0x40b503b8d2eb9c7c, 0x40e6450a8bb3dfed},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", tc.policy, tc.n), func(t *testing.T) {
			opts := testOptions(t, tc.policy)
			tp := opts.Cfg.Thermal
			tp.TMaxC = 45
			opts.Cfg = opts.Cfg.WithThermal(tp)
			if tc.policy == PolicyRandom {
				opts.Char = nil
			}
			ep, err := PlanEpoch(opts, seededBatch(t, tc.n, tc.batchSeed), 7)
			if err != nil {
				t.Fatal(err)
			}
			if ep.Plan != nil || ep.Predicted != 0 {
				t.Errorf("dispatcher epoch has plan %v, predicted %v", ep.Plan, ep.Predicted)
			}
			order := make([]string, len(ep.Result.Completions))
			for i, c := range ep.Result.Completions {
				order[i] = fmt.Sprintf("%d%c", c.Inst.ID, c.Dev.String()[0])
			}
			got := fmt.Sprintf("%q, %#x, %#x", strings.Join(order, " "),
				math.Float64bits(float64(ep.Result.Makespan)),
				math.Float64bits(ep.Result.EnergyJ))
			want := fmt.Sprintf("%q, %#x, %#x", tc.order, tc.makespan, tc.energy)
			if got != want {
				t.Errorf("completion order, makespan, energy:\n got %s\nwant %s", got, want)
			}
		})
	}
}
