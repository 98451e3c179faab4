package core

import (
	"fmt"
	"testing"

	"corun/internal/model"
)

// BenchmarkPlanStages times each hcs+ planning stage alone — step 1's
// partition, step 3's greedy plan and the post refinement — over
// seeded batches of 8 and 64 jobs (every job in S_co) under a 15 W
// cap. Every iteration plans on a fresh memoizing predictor and
// context, as a served epoch does, and runs the stages before the
// timed one untimed, so each stage finds the memo state it finds in an
// epoch.
func BenchmarkPlanStages(b *testing.B) {
	for _, n := range []int{8, 64} {
		raw, _ := testContext(b, seededBatch(b, n, 1), 15)
		fresh := func(b *testing.B) *Context {
			cached, err := model.NewCachedPredictor(raw.Oracle.(model.Oracle), raw.Cfg)
			if err != nil {
				b.Fatal(err)
			}
			cx, err := NewContext(cached, raw.Cfg, 15)
			if err != nil {
				b.Fatal(err)
			}
			return cx
		}
		b.Run(fmt.Sprintf("partition/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cx := fresh(b)
				b.StartTimer()
				cx.PartitionJobs()
			}
		})
		b.Run(fmt.Sprintf("greedy/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cx := fresh(b)
				part := cx.PartitionJobs()
				prefs, err := cx.Categorize(part.SCo, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := cx.greedyPlan(part.SCo, prefs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("refine/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cx := fresh(b)
				s, err := cx.HCS(HCSOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := cx.Refine(s, RefineOptions{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
