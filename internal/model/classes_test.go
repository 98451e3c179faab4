package model

import (
	"math"
	"testing"

	"corun/internal/apu"
	"corun/internal/profile"
	"corun/internal/workload"
)

// twoScaleBatch is Batch8's programs twice: at scale 1, then at 1.25,
// so job i and job i+8 run the same program on different inputs.
func twoScaleBatch() []*workload.Instance {
	var batch []*workload.Instance
	for _, scale := range []float64{1, 1.25} {
		for _, in := range workload.Batch8() {
			batch = append(batch, &workload.Instance{ID: len(batch), Prog: in.Prog, Scale: scale, Label: in.Label})
		}
	}
	return batch
}

// checkClasses verifies the Classed contract on o and the class-keyed
// memo above it. Jobs of one class must answer every query except
// StandaloneTime bit for bit alike, with the job in either slot; and
// every Degradation query through a CachedPredictor must bit-equal the
// base oracle's answer, on the first (filling) and the second (hit)
// read. levels lists the frequency levels swept per device.
func checkClasses(t *testing.T, name string, o Oracle, cfg *apu.Config, levels [apu.NumDevices][]int) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	cls := jobClasses(o)
	n := o.NumJobs()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if cls[i] != cls[j] {
				continue
			}
			for d := apu.CPU; d <= apu.GPU; d++ {
				for _, f := range levels[d] {
					if !same(float64(o.StandalonePower(i, d, f)), float64(o.StandalonePower(j, d, f))) {
						t.Fatalf("%s: jobs %d,%d share class %d but differ in %v power at %d", name, i, j, cls[i], d, f)
					}
					for k := 0; k < n; k++ {
						for _, g := range levels[d.Other()] {
							if !same(o.Degradation(i, d, f, k, g), o.Degradation(j, d, f, k, g)) ||
								!same(o.Degradation(k, d.Other(), g, i, f), o.Degradation(k, d.Other(), g, j, f)) {
								t.Fatalf("%s: jobs %d,%d share class %d but degrade differently beside %d", name, i, j, cls[i], k)
							}
							pair := func(x int) float64 {
								if d == apu.CPU {
									return float64(o.CoRunPower(x, f, k, g))
								}
								return float64(o.CoRunPower(k, g, x, f))
							}
							if !same(pair(i), pair(j)) {
								t.Fatalf("%s: jobs %d,%d share class %d but differ in co-run power beside %d", name, i, j, cls[i], k)
							}
						}
					}
				}
			}
		}
	}

	cached, err := NewCachedPredictor(o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		for i := 0; i < n; i++ {
			for d := apu.CPU; d <= apu.GPU; d++ {
				for _, f := range levels[d] {
					for j := 0; j < n; j++ {
						for _, g := range levels[d.Other()] {
							if got, want := cached.Degradation(i, d, f, j, g), o.Degradation(i, d, f, j, g); !same(got, want) {
								t.Fatalf("%s read %d: cached Degradation(%d,%v,%d,%d,%d) = %v, base %v", name, rep, i, d, f, j, g, got, want)
							}
						}
					}
				}
			}
		}
	}
	if s := cached.Stats(); s.Hits == 0 {
		t.Errorf("%s: class-keyed cache never hit: %+v", name, s)
	}
}

func allLevels(cfg *apu.Config) [apu.NumDevices][]int {
	var out [apu.NumDevices][]int
	for d := apu.CPU; d <= apu.GPU; d++ {
		for f := 0; f < cfg.NumFreqs(d); f++ {
			out[d] = append(out[d], f)
		}
	}
	return out
}

func TestDegradationClasses(t *testing.T) {
	char, cfg, mem := smallChar(t)
	batch := twoScaleBatch()
	prof, err := profile.Collect(cfg, mem, batch)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := NewPredictor(char, prof)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("predictor", func(t *testing.T) {
		// Input scale changes only the time rows, so the classes are
		// the programs.
		cls := pred.DegradationClasses()
		for i := 0; i < 8; i++ {
			if cls[i] != i || cls[i+8] != i {
				t.Fatalf("classes %v, want one per program", cls)
			}
		}
		checkClasses(t, "predictor", pred, cfg, allLevels(cfg))
	})

	t.Run("calibrated", func(t *testing.T) {
		cal, err := NewCalibratedPredictor(pred, CalibrateOptions{Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		checkClasses(t, "calibrated", cal, cfg, allLevels(cfg))

		// Two runs of one program with different corrections must
		// not share a class, even though the embedded Predictor puts
		// them in one; equal corrections may share it.
		scale := make([][]float64, len(batch))
		for i := range scale {
			scale[i] = []float64{1, 1}
		}
		scale[8][apu.CPU] = 1.25
		hand := &CalibratedPredictor{Predictor: pred, scale: scale}
		cls := hand.DegradationClasses()
		if cls[0] == cls[8] {
			t.Errorf("jobs 0 and 8 are differently calibrated but share class %d", cls[0])
		}
		if cls[1] != cls[9] {
			t.Errorf("jobs 1 and 9 are calibrated alike but got classes %d and %d", cls[1], cls[9])
		}
		checkClasses(t, "hand-calibrated", hand, cfg, allLevels(cfg))
	})

	t.Run("ground truth", func(t *testing.T) {
		// Every query is a co-run simulation: three jobs, two levels a
		// device.
		small := []*workload.Instance{
			{ID: 0, Prog: batch[0].Prog, Scale: 1, Label: batch[0].Label},
			{ID: 1, Prog: batch[0].Prog, Scale: 1.25, Label: batch[0].Label},
			{ID: 2, Prog: batch[2].Prog, Scale: 1, Label: batch[2].Label},
		}
		sprof, err := profile.Collect(cfg, mem, small)
		if err != nil {
			t.Fatal(err)
		}
		gt, err := NewGroundTruthOracle(sprof, small)
		if err != nil {
			t.Fatal(err)
		}
		if cls := jobClasses(gt); cls[0] == cls[1] {
			t.Errorf("ground truth merged jobs of different scale: %v", cls)
		}
		levels := [apu.NumDevices][]int{
			{0, cfg.MaxFreqIndex(apu.CPU)},
			{0, cfg.MaxFreqIndex(apu.GPU)},
		}
		checkClasses(t, "ground truth", gt, cfg, levels)
	})
}
