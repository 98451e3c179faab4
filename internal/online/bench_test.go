package online

import (
	"fmt"
	"testing"
)

// BenchmarkPlanEpoch measures one served hcs+ epoch end to end —
// profile, model, plan, predicted makespan, simulation — under a 15 W
// cap and a 45 °C trip point, over seeded batches of 8 and 64 jobs.
func BenchmarkPlanEpoch(b *testing.B) {
	opts := testOptions(b, PolicyHCSPlus)
	tp := opts.Cfg.Thermal
	tp.TMaxC = 45
	opts.Cfg = opts.Cfg.WithThermal(tp)
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			batch := seededBatch(b, n, int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PlanEpoch(opts, batch, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
