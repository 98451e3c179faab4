package core

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"corun/internal/apu"
	"corun/internal/model"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

func TestHCSEmptyBatch(t *testing.T) {
	cx, _ := testContext(t, nil, 0)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Jobs()) != 0 {
		t.Error("empty batch produced a non-empty schedule")
	}
}

func TestHCSScheduleValid(t *testing.T) {
	for _, cap := range []units.Watts{0, 15, 16} {
		batch := workload.Batch8()
		cx, _ := testContext(t, batch, cap)
		s, err := cx.HCS(HCSOptions{})
		if err != nil {
			t.Fatalf("cap %v: %v", cap, err)
		}
		if err := s.Validate(len(batch)); err != nil {
			t.Errorf("cap %v: %v", cap, err)
		}
	}
}

// dwt2d (the only CPU-preferred program, index 2) must land on the CPU.
func TestHCSRespectsStrongPreference(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	onCPU := false
	for _, j := range s.CPUOrder {
		if j == 2 {
			onCPU = true
		}
	}
	if !onCPU && !s.Exclusive[2] {
		t.Errorf("dwt2d not scheduled on the CPU: %v", s)
	}
}

func TestHCSInfeasibleCap(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 1) // below idle power
	if _, err := cx.HCS(HCSOptions{}); err == nil {
		t.Error("1 W cap should be infeasible")
	}
}

// The refinement never worsens the predicted makespan, across seeds.
func TestRefineNeverWorsens(t *testing.T) {
	batch := workload.Batch16()
	cx, _ := testContext(t, batch, 15)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := cx.PredictedMakespan(s)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		ref, predicted, err := cx.Refine(s, RefineOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if predicted > base+1e-9 {
			t.Errorf("seed %d: refinement worsened predicted makespan %v -> %v", seed, base, predicted)
		}
		if err := ref.Validate(len(batch)); err != nil {
			t.Errorf("seed %d: refined schedule invalid: %v", seed, err)
		}
	}
}

// Refine swaps jobs in place on its own copy of the schedule; the
// schedule it was given must come back untouched, whichever swaps it
// kept.
func TestRefineLeavesInputUnchanged(t *testing.T) {
	batch := seededBatch(t, 64, 64)
	cx, _ := testContext(t, batch, 15)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	orig := s.Clone()
	ref, _, err := cx.Refine(s, RefineOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, orig) {
		t.Errorf("Refine modified its input: %v, was %v", s, orig)
	}
	if ref.String() == orig.String() {
		t.Error("refinement kept no swap; the case does not exercise the in-place swaps")
	}
}

// Figure 10 reproduction (8 programs, 15 W): HCS and HCS+ beat both
// Default variants and Random; Default_G beats Default_C; ordering as
// in the paper.
func TestFigure10Ordering(t *testing.T) {
	batch := workload.Batch8()
	cx, opts := testContext(t, batch, 15)

	randAvg, _, err := RandomAverage(opts, batch, 10, 1, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	defG, err := ExecuteDefault(opts, batch, cx.Oracle, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	defC, err := ExecuteDefault(opts, batch, cx.Oracle, sim.CPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	hcsPlus, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cx.Execute(hcsPlus, batch, opts)
	if err != nil {
		t.Fatal(err)
	}

	if res.Makespan >= defG.Makespan {
		t.Errorf("HCS+ (%v) should beat Default_G (%v)", res.Makespan, defG.Makespan)
	}
	if defG.Makespan > defC.Makespan {
		t.Errorf("Default_G (%v) should not lose to Default_C (%v)", defG.Makespan, defC.Makespan)
	}
	if float64(res.Makespan) > float64(randAvg)*0.85 {
		t.Errorf("HCS+ (%v) should improve on Random (%v) by well over 15%%", res.Makespan, randAvg)
	}
	// The power cap must hold during HCS+ execution (small reactive
	// excursions tolerated, as in Figure 9).
	if res.MaxExcess > 2 {
		t.Errorf("HCS+ exceeded the cap by %v; paper tolerates < 2 W", res.MaxExcess)
	}
}

// Figure 11 reproduction (16 programs, 15 W): the Default schedules
// fall below Random because of CPU multiprogramming, while HCS+ gains
// substantially over everything.
func TestFigure11Ordering(t *testing.T) {
	batch := workload.Batch16()
	cx, opts := testContext(t, batch, 15)

	randAvg, _, err := RandomAverage(opts, batch, 10, 1, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	defG, err := ExecuteDefault(opts, batch, cx.Oracle, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	hcs, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hcsRes, err := cx.Execute(hcs, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	hcsPlus, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plusRes, err := cx.Execute(hcsPlus, batch, opts)
	if err != nil {
		t.Fatal(err)
	}

	if float64(defG.Makespan) < float64(randAvg) {
		t.Errorf("Default_G (%v) should fall below Random (%v) at 16 programs", defG.Makespan, randAvg)
	}
	if float64(hcsRes.Makespan) > float64(randAvg)*0.85 {
		t.Errorf("HCS (%v) should clearly beat Random (%v)", hcsRes.Makespan, randAvg)
	}
	if float64(plusRes.Makespan) > float64(randAvg)*0.75 {
		t.Errorf("HCS+ (%v) should beat Random (%v) by well over 25%%", plusRes.Makespan, randAvg)
	}
	if float64(plusRes.Makespan) > float64(defG.Makespan)/1.40 {
		t.Errorf("HCS+ (%v) should beat Default_G (%v) by ~46%%", plusRes.Makespan, defG.Makespan)
	}
}

// The lower bound sits below every achievable makespan.
func TestLowerBoundBelowAll(t *testing.T) {
	batch := workload.Batch8()
	cx, opts := testContext(t, batch, 15)
	bound, err := cx.LowerBound()
	if err != nil {
		t.Fatal(err)
	}
	if bound <= 0 {
		t.Fatal("non-positive bound")
	}
	hcsPlus, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cx.Execute(hcsPlus, batch, opts)
	if err != nil {
		t.Fatal(err)
	}
	if float64(bound) > float64(res.Makespan) {
		t.Errorf("bound %v exceeds an achieved makespan %v", bound, res.Makespan)
	}
	rnd, _, err := RandomAverage(opts, batch, 5, 3, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	if float64(bound) > float64(rnd) {
		t.Errorf("bound %v exceeds the random average %v", bound, rnd)
	}
}

// MinCoRunTime (Table I's min co-run rows) exceeds the standalone time
// and stays finite for every job and device.
func TestMinCoRunTimes(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 0)
	for i := range batch {
		for d := apu.CPU; d <= apu.GPU; d++ {
			co, ok := cx.MinCoRunTime(i, d)
			if !ok {
				t.Fatalf("job %d dev %v: no co-run time", i, d)
			}
			solo, _ := cx.BestSoloTime(i, d)
			if co < solo {
				t.Errorf("job %d dev %v: min co-run %v below solo %v", i, d, co, solo)
			}
			if float64(co) > 3*float64(solo) {
				t.Errorf("job %d dev %v: min co-run %v implausibly above solo %v", i, d, co, solo)
			}
		}
	}
}

// The ablations run and produce valid schedules; disabling parts of the
// algorithm must not beat the full heuristic on predicted makespan by
// any meaningful margin.
func TestHCSAblations(t *testing.T) {
	batch := workload.Batch16()
	cx, _ := testContext(t, batch, 15)
	full, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fullT, err := cx.PredictedMakespan(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []HCSOptions{
		{DisablePartition: true},
		{DisablePreference: true},
		{DisablePartition: true, DisablePreference: true},
	} {
		s, err := cx.HCS(opt)
		if err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		if err := s.Validate(len(batch)); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		tt, err := cx.PredictedMakespan(s)
		if err != nil {
			t.Fatal(err)
		}
		if float64(tt) < float64(fullT)*0.95 {
			t.Errorf("ablation %+v predicted %v clearly beats full HCS %v", opt, tt, fullT)
		}
	}
}

// Scheduling overhead: the paper reports the algorithm takes under
// 0.1% of the makespan. Simulated makespans are hundreds of seconds;
// HCS+HCS+ must run in well under a real-time fraction of that.
func TestSchedulerOverheadTiny(t *testing.T) {
	batch := workload.Batch16()
	cx, _ := testContext(t, batch, 15)
	start := time.Now()
	if _, _, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Errorf("scheduling took %v; far too slow for online use", el)
	}
}

func TestExecuteValidatesIDs(t *testing.T) {
	batch := workload.Batch8()
	cx, opts := testContext(t, batch, 15)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	batch[3].ID = 99
	if _, err := cx.Execute(s, batch, opts); err == nil {
		t.Error("mismatched instance IDs accepted")
	}
}

func TestDefaultPartitionShape(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	cpuJobs, gpuJobs := DefaultPartition(cx.Oracle, cx.Cfg)
	if len(cpuJobs)+len(gpuJobs) != 8 {
		t.Fatal("partition does not cover the batch")
	}
	// dwt2d (2) has the smallest CPU/GPU ratio: it must be in the CPU
	// partition (the ranking's tail).
	found := false
	for _, j := range cpuJobs {
		if j == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("dwt2d not in the CPU partition: cpu=%v gpu=%v", cpuJobs, gpuJobs)
	}
	// The GPU partition must hold the majority: six programs are
	// GPU-preferred, and the GPU is ~2.3x faster on them.
	if len(gpuJobs) < len(cpuJobs) {
		t.Errorf("GPU partition (%d) smaller than CPU partition (%d)", len(gpuJobs), len(cpuJobs))
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	batch := workload.Batch8()
	_, opts := testContext(t, batch, 15)
	a, err := ExecuteRandom(opts, batch, 42, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ExecuteRandom(opts, batch, 42, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("same seed gave different makespans: %v vs %v", a.Makespan, b.Makespan)
	}
	c, err := ExecuteRandom(opts, batch, 43, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan == c.Makespan {
		t.Log("different seeds coincided (possible but unusual)")
	}
}

func TestRandomAverageValidation(t *testing.T) {
	batch := workload.Batch8()
	_, opts := testContext(t, batch, 15)
	if _, _, err := RandomAverage(opts, batch, 0, 0, sim.GPUBiased); err == nil {
		t.Error("zero seeds accepted")
	}
	avg, results, err := RandomAverage(opts, batch, 3, 0, sim.GPUBiased)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 || avg <= 0 {
		t.Errorf("RandomAverage returned %d results, avg %v", len(results), avg)
	}
}

// All 16 jobs complete under every policy (no job lost by a dispatcher).
func TestAllPoliciesCompleteAllJobs(t *testing.T) {
	batch := workload.Batch16()
	cx, opts := testContext(t, batch, 15)

	check := func(name string, res *sim.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Completions) != len(batch) {
			t.Errorf("%s: %d of %d jobs completed", name, len(res.Completions), len(batch))
		}
	}
	r, err := ExecuteRandom(opts, batch, 5, sim.GPUBiased)
	check("random", r, err)
	d, err := ExecuteDefault(opts, batch, cx.Oracle, sim.CPUBiased)
	check("default", d, err)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	h, err := cx.Execute(s, batch, opts)
	check("hcs", h, err)
}

func TestExplainPlan(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 15)
	s, err := cx.HCS(HCSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]string, len(batch))
	for i, in := range batch {
		labels[i] = in.Label
	}
	var b strings.Builder
	if err := cx.ExplainPlan(&b, s, labels); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"power cap: 15.0 W", "dwt2d", "pref=", "queues:", "t=", "predicted degradation"} {
		if !strings.Contains(out, want) {
			t.Errorf("explanation missing %q:\n%s", want, out)
		}
	}
	// Bad schedules are rejected.
	if err := cx.ExplainPlan(&b, &Schedule{CPUOrder: []int{0, 0}, Exclusive: map[int]bool{}}, labels); err == nil {
		t.Error("invalid schedule accepted")
	}
}

// Planning must be a pure function of the batch and the seed: the
// greedy step's steal guard compares float sums, so those sums must not
// depend on map iteration order. Twenty replans of a seeded 64-job
// batch on fresh contexts (each over a fresh memo, as a served epoch
// plans) agree on the plan and on the predicted makespan's bits.
func TestHCSPlusDeterministicAcrossContexts(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	names := workload.Names()
	batch := make([]*workload.Instance, 64)
	for i := range batch {
		prog, err := workload.ByName(names[rng.Intn(len(names))])
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = &workload.Instance{ID: i, Prog: prog, Scale: 0.8 + 0.5*rng.Float64(), Label: prog.Name}
	}
	var wantPlan string
	var wantBits uint64
	for rep := 0; rep < 20; rep++ {
		raw, _ := testContext(t, batch, 15)
		cached, err := model.NewCachedPredictor(raw.Oracle.(model.Oracle), raw.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		cx, err := NewContext(cached, raw.Cfg, 15)
		if err != nil {
			t.Fatal(err)
		}
		s, ms, err := cx.HCSPlus(HCSOptions{}, RefineOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan, bits := s.String(), math.Float64bits(float64(ms))
		if rep == 0 {
			wantPlan, wantBits = plan, bits
			continue
		}
		if plan != wantPlan || bits != wantBits {
			t.Fatalf("replan %d: %s @ %v, first plan %s @ %v", rep, plan, ms, wantPlan, math.Float64frombits(wantBits))
		}
	}
}
