package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"time"

	"corun/internal/apu"
	"corun/internal/core"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/units"
	"corun/internal/workload"
)

// The plan workload: PlanEpoch with hcs+ on the 15 W, 45 °C machine,
// over a fixed seeded pass of planJobsPerSize jobs in batches of 8 and
// as many in batches of 64.
const (
	planCapW        = 15
	planTMaxC       = 45
	planJobsPerSize = 2048
	planSetups      = 16 // half before the measured window, half after it
)

var planSizes = []int{8, 64}

// planLayers are the calls PlanEpoch makes for a planned policy, in its
// order; each is one span under the epoch span of a traced run.
var planLayers = []string{"profile", "model", "policy", "core.predict", "sim"}

// planBatch is one epoch's input: the batch and the policy seed.
type planBatch struct {
	insts []*workload.Instance
	seed  int64
}

// planBatches builds the seeded pass: one batch of 64 followed by
// eight batches of 8, repeated until each size holds planJobsPerSize
// jobs. Programs are drawn uniformly from the benchmark set, input
// scales from [0.8, 1.3].
func planBatches(seed int64) ([]planBatch, error) {
	rng := rand.New(rand.NewSource(seed))
	names := workload.Names()
	var out []planBatch
	add := func(n int) error {
		insts := make([]*workload.Instance, n)
		for i := range insts {
			name := names[rng.Intn(len(names))]
			prog, err := workload.ByName(name)
			if err != nil {
				return err
			}
			insts[i] = &workload.Instance{ID: i, Prog: prog, Scale: 0.8 + 0.5*rng.Float64(), Label: name}
		}
		out = append(out, planBatch{insts: insts, seed: rng.Int63()})
		return nil
	}
	for k := 0; k < planJobsPerSize/64; k++ {
		if err := add(64); err != nil {
			return nil, err
		}
		for i := 0; i < 64/8; i++ {
			if err := add(8); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// planMachine is the ivybridge preset with the thermal trip point
// lowered to planTMaxC, built the way corund's -tmax flag builds it.
func planMachine() (*apu.Config, error) {
	cfg := apu.DefaultConfig()
	tp := cfg.Thermal
	tp.TMaxC = planTMaxC
	if err := tp.Validate(); err != nil {
		return nil, err
	}
	return cfg.WithThermal(tp), nil
}

// quality accumulates the simulated outcome of one pass; for a given
// seed every figure repeats exactly.
type quality struct {
	jobs, epochs          int
	makespanS, energyJ    float64
	predErrSum            float64
	overCap, powerSamples int
	makespans             []float64
}

func (q *quality) add(ep *online.Epoch, n int) {
	r := ep.Result
	q.jobs += n
	q.epochs++
	q.makespanS += float64(r.Makespan)
	q.energyJ += r.EnergyJ
	q.predErrSum += math.Abs(float64(ep.Predicted-r.Makespan)) / float64(r.Makespan)
	q.overCap += r.CapViolations
	q.powerSamples += r.Power.Len()
	q.makespans = append(q.makespans, float64(r.Makespan))
}

// checkEpoch is the per-epoch gate: every job of the batch completes.
func checkEpoch(ep *online.Epoch, n int) error {
	if ep.Plan == nil {
		return fmt.Errorf("epoch has no plan")
	}
	if got := len(ep.Result.Completions); got != n {
		return fmt.Errorf("epoch completed %d of %d jobs", got, n)
	}
	return nil
}

// allocBytes reads the runtime's cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// planLayerStats accumulates the traced run's per-layer counters for
// one batch size.
type planLayerStats struct {
	jobs       int
	allocB     map[string]uint64
	hits, hitQ uint64
	throttles  int
}

// tracedEpoch makes PlanEpoch's calls for a planned policy one by one,
// each timed as a child span of one epoch span.
// It returns the epoch and the ID of its span.
func tracedEpoch(tr *tracer, opts online.Options, b planBatch, ref string, st *planLayerStats) (*online.Epoch, int, error) {
	epoch := tr.open("epoch", ref, 0, time.Now())
	defer func() { tr.close(epoch, time.Now()) }()
	step := func(name string, f func() error) error {
		a0, t0 := allocBytes(), time.Now()
		err := f()
		t1 := time.Now()
		st.allocB[name] += allocBytes() - a0
		tr.record(name, ref, epoch, t0, t1)
		return err
	}
	var (
		prof      *profile.Standalone
		cached    *model.CachedPredictor
		cx        *core.Context
		plan      *core.Schedule
		predicted units.Seconds
		ep        = &online.Epoch{}
	)
	if err := step("profile", func() (err error) {
		prof, err = profile.Collect(opts.Cfg, opts.Mem, b.insts)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := step("model", func() error {
		pred, err := model.NewPredictor(opts.Char, prof)
		if err != nil {
			return err
		}
		cached, err = model.NewCachedPredictor(pred, opts.Cfg)
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := step("policy", func() (err error) {
		if cx, err = core.NewContext(cached, opts.Cfg, opts.Cap); err != nil {
			return err
		}
		cx.Domains = opts.Domains
		plan, err = policy.Plan(string(opts.Policy), cx, policy.Options{Seed: b.seed})
		return err
	}); err != nil {
		return nil, 0, err
	}
	if err := step("core.predict", func() (err error) {
		predicted, err = cx.PredictedMakespan(plan)
		return err
	}); err != nil {
		return nil, 0, err
	}
	execOpts := core.ExecOptions{Cfg: opts.Cfg, Mem: opts.Mem, Cap: opts.Cap, Domains: opts.Domains}
	if err := step("sim", func() (err error) {
		ep.Result, err = cx.Execute(plan, b.insts, execOpts)
		return err
	}); err != nil {
		return nil, 0, err
	}
	ep.Plan, ep.Predicted = plan, predicted
	cs := cached.Stats()
	st.hits += cs.Hits
	st.hitQ += cs.Hits + cs.Misses
	st.throttles += ep.Result.Throttles
	st.jobs += len(b.insts)
	return ep, epoch, nil
}

// sameEpoch reports the first difference between two epochs of the
// same batch and seed, compared bit for bit.
func sameEpoch(a, b *online.Epoch) error {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !same(float64(a.Predicted), float64(b.Predicted)):
		return fmt.Errorf("predicted makespan %v != %v", a.Predicted, b.Predicted)
	case !same(float64(a.Result.Makespan), float64(b.Result.Makespan)):
		return fmt.Errorf("makespan %v != %v", a.Result.Makespan, b.Result.Makespan)
	case !same(a.Result.EnergyJ, b.Result.EnergyJ):
		return fmt.Errorf("energy %v != %v", a.Result.EnergyJ, b.Result.EnergyJ)
	case len(a.Result.Completions) != len(b.Result.Completions):
		return fmt.Errorf("%d != %d completions", len(a.Result.Completions), len(b.Result.Completions))
	}
	for i, c := range a.Result.Completions {
		d := b.Result.Completions[i]
		if c.Inst.ID != d.Inst.ID || c.Dev != d.Dev || !same(float64(c.End), float64(d.End)) {
			return fmt.Errorf("completion %d differs", i)
		}
	}
	return nil
}

// runPlan is the plan workload.
func runPlan(cfg runConfig) (*report, error) {
	mcfg, err := planMachine()
	if err != nil {
		return nil, err
	}
	mem := memsys.Default()
	rep := newReport(cfg)
	rep.param("policy", "hcs+")
	rep.param("cap_w", planCapW)
	rep.param("tmax_c", planTMaxC)
	rep.param("batch_sizes", planSizes)
	rep.param("jobs_per_size_per_pass", planJobsPerSize)

	var (
		char   *model.Characterization
		setups []float64
	)
	characterize := func() error {
		for range planSetups / 2 {
			t0 := time.Now()
			if char, err = model.Characterize(model.CharacterizeOptions{Cfg: mcfg, Mem: mem}); err != nil {
				return fmt.Errorf("characterize: %w", err)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := characterize(); err != nil {
		return nil, err
	}
	batches, err := planBatches(cfg.seed)
	if err != nil {
		return nil, err
	}
	opts := online.Options{Cfg: mcfg, Mem: mem, Char: char, Cap: planCapW, Policy: online.PolicyHCSPlus, Seed: cfg.seed}

	var (
		lat              latencies
		busy, tracedBusy time.Duration
		jobs, passes     int
		pass1            quality
		tr               *tracer
		layer            = map[int]*planLayerStats{}
		epochSize        = map[int]int{} // epoch span ID -> batch size
	)
	if cfg.trace {
		tr = newTracer()
		for _, n := range planSizes {
			layer[n] = &planLayerStats{allocB: map[string]uint64{}}
		}
	}
	deadline := time.Now().Add(cfg.duration)
	for passes == 0 || time.Now().Before(deadline) {
		for i, b := range batches {
			if passes > 0 && !time.Now().Before(deadline) {
				break
			}
			n := len(b.insts)
			t0 := time.Now()
			ep, err := online.PlanEpoch(opts, b.insts, b.seed)
			d := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("PlanEpoch (batch %d): %w", i, err)
			}
			if err := checkEpoch(ep, n); err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
			busy += d
			jobs += n
			lat.add(float64(d) / 1e6)
			if passes == 0 {
				pass1.add(ep, n)
			} else if ms := float64(ep.Result.Makespan); math.Float64bits(ms) != math.Float64bits(pass1.makespans[i]) {
				return nil, fmt.Errorf("batch %d: pass %d makespan %v differs from pass 1's %v", i, passes+1, ms, pass1.makespans[i])
			}
			if tr != nil {
				t1 := time.Now()
				tep, id, err := tracedEpoch(tr, opts, b, fmt.Sprintf("epoch-%d.%d", passes, i), layer[n])
				tracedBusy += time.Since(t1)
				epochSize[id] = n
				if err != nil {
					return nil, fmt.Errorf("traced epoch (batch %d): %w", i, err)
				}
				if err := sameEpoch(ep, tep); err != nil {
					return nil, fmt.Errorf("batch %d: traced epoch differs from PlanEpoch: %w", i, err)
				}
			}
		}
		passes++
	}

	if err := characterize(); err != nil {
		return nil, err
	}
	rep.e2e("setup_s", median(setups), "s")
	rep.attempted = jobs
	rep.param("passes", passes)
	if err := rep.percentiles("lat", &lat, false, 0.5); err != nil {
		return nil, err
	}
	jobsPerS := float64(jobs) / busy.Seconds()
	rep.e2e("jobs_per_s", jobsPerS, "jobs/s")
	rss, err := selfPeakRSS()
	if err != nil {
		return nil, err
	}
	rep.e2e("rss_mb", rss, "MiB")
	rep.e2e("sim_makespan_per_job_s", pass1.makespanS/float64(pass1.jobs), "sim_s")
	rep.e2e("energy_per_job_j", pass1.energyJ/float64(pass1.jobs), "J")
	rep.layer("model.pred_error_pct", 100*pass1.predErrSum/float64(pass1.epochs), "%")
	rep.layer("sim.cap_violation_frac", ratio(float64(pass1.overCap), float64(pass1.powerSamples)), "ratio")

	if tr != nil {
		spans := tr.snapshot()
		self := selfTimes(spans)
		byLayer := map[int]map[string]int64{}
		for _, n := range planSizes {
			byLayer[n] = map[string]int64{}
		}
		for _, s := range spans {
			if n, ok := epochSize[s.Parent]; ok {
				byLayer[n][s.Name] += self[s.ID]
			}
		}
		for _, n := range planSizes {
			st := layer[n]
			sfx := fmt.Sprintf(".n%d", n)
			for _, name := range planLayers {
				key := name + ".us_per_job"
				if name == "core.predict" {
					key = "core.predict_us_per_job"
				}
				rep.layer(key+sfx, float64(byLayer[n][name])/1e3/float64(st.jobs), "us")
			}
			for _, name := range []string{"model", "policy", "sim"} {
				rep.layer(name+".alloc_kb_per_job"+sfx, float64(st.allocB[name])/1024/float64(st.jobs), "KiB")
			}
			rep.layer("model.cache_hit_ratio"+sfx, ratio(float64(st.hits), float64(st.hitQ)), "ratio")
			rep.layer("sim.throttles_per_job"+sfx, float64(st.throttles)/float64(st.jobs), "count")
		}
		tracedJobsPerS := float64(jobs) / tracedBusy.Seconds()
		rep.layer("trace.jobs_per_s", tracedJobsPerS, "jobs/s")
		rep.layer("trace.overhead_pct", 100*(jobsPerS-tracedJobsPerS)/jobsPerS, "%")
		rep.spans = spans
	}
	return rep, nil
}
