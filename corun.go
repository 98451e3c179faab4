// Package corun is a co-run scheduler for integrated CPU-GPU systems
// with power caps, reproducing Zhu et al., "Co-Run Scheduling with
// Power Cap on Integrated CPU-GPU Systems" (IPDPS 2017).
//
// The package ties together the full pipeline of the paper:
//
//  1. a simulated integrated processor (an Ivy Bridge-like APU with
//     DVFS, a shared memory system, and package power accounting) that
//     substitutes for the paper's physical testbed;
//  2. offline standalone profiling of a job batch;
//  3. micro-benchmark characterization of the co-run degradation space
//     and a staged-interpolation predictive model (section V);
//  4. the HCS/HCS+ co-scheduling heuristics, the optimal-makespan
//     lower bound, and the Random/Default baselines (sections IV, VI).
//
// # Quick start
//
//	sys, _ := corun.NewSystem(corun.WithPowerCap(15))
//	w, _ := sys.Prepare(corun.Batch8())
//	plan, _ := w.Schedule("hcs+")
//	report, _ := w.Run(plan)
//	fmt.Println(report.Makespan)
//
// See the examples directory for complete programs.
package corun

import (
	"fmt"
	"io"

	"corun/internal/apu"
	"corun/internal/cluster"
	"corun/internal/core"
	"corun/internal/gantt"
	"corun/internal/kernelsim"
	"corun/internal/memsys"
	"corun/internal/model"
	"corun/internal/online"
	"corun/internal/policy"
	"corun/internal/profile"
	"corun/internal/sim"
	"corun/internal/trace"
	"corun/internal/units"
	"corun/internal/workload"
)

// Re-exported quantity and domain types; see the internal packages for
// their full documentation.
type (
	// Seconds is a duration in simulated seconds.
	Seconds = units.Seconds
	// Watts is electrical power.
	Watts = units.Watts
	// GBps is memory bandwidth.
	GBps = units.GBps
	// Device identifies the CPU or GPU side of the die.
	Device = apu.Device
	// Machine describes the simulated processor.
	Machine = apu.Config
	// Instance is one schedulable job.
	Instance = workload.Instance
	// Schedule is a planned co-schedule.
	Schedule = core.Schedule
	// Bias selects a reactive governor's sacrificial device.
	Bias = sim.Bias
	// DomainCaps are RAPL-style per-plane power caps (PP0 = CPU cores,
	// PP1 = iGPU, Package tightens the package cap).
	DomainCaps = apu.DomainCaps
	// Constraint names the power or thermal limit that bound a run.
	Constraint = apu.Constraint
	// PowerTrace is a sampled power time series.
	PowerTrace = trace.Series
	// Completion records one finished job.
	Completion = sim.Completion
	// Program is the analytic model of one benchmark.
	Program = workload.Instance
)

// Device and bias constants.
const (
	CPU = apu.CPU
	GPU = apu.GPU

	GPUBiased = sim.GPUBiased
	CPUBiased = sim.CPUBiased
)

// Batch8 returns the paper's 8-program workload.
func Batch8() []*Instance { return workload.Batch8() }

// Batch16 returns the paper's 16-program workload (two instances of
// each benchmark with different inputs).
func Batch16() []*Instance { return workload.Batch16() }

// Subset builds a batch from benchmark names (streamcluster, cfd,
// dwt2d, hotspot, srad, lud, leukocyte, heartwall).
func Subset(names ...string) ([]*Instance, error) { return workload.Subset(names...) }

// BenchmarkNames lists the available benchmark programs.
func BenchmarkNames() []string { return workload.Names() }

// PhaseSpec describes one execution phase of a custom program.
type PhaseSpec struct {
	// Frac is the fraction of the program's work in this phase; the
	// fractions of a program sum to 1.
	Frac float64
	// BytesPerOp is the phase's memory intensity (bytes moved per
	// abstract operation); 0 means pure compute.
	BytesPerOp float64
}

// ProgramSpec describes a custom job for scheduling: how much work it
// does, how fast each device executes it, how sensitive it is to
// memory latency, and its phase structure. See the calibrated table in
// internal/workload for reference values (CPUEff/GPUEff are Gops/s per
// GHz; typical sensitivities are 0.2-0.3 CPU, 0.05-0.2 GPU, with
// pointer-chasing outliers above 1).
type ProgramSpec struct {
	Name             string
	Work             float64
	CPUEff, GPUEff   float64
	CPUSens, GPUSens float64
	Phases           []PhaseSpec
}

// NewInstance builds a schedulable instance from a custom program
// spec. id must equal the instance's position in the batch passed to
// Prepare; scale scales the input size.
func NewInstance(spec ProgramSpec, id int, scale float64) (*Instance, error) {
	p := &kernelsim.Program{
		Name:    spec.Name,
		Work:    units.GOps(spec.Work),
		CPUEff:  spec.CPUEff,
		GPUEff:  spec.GPUEff,
		CPUSens: spec.CPUSens,
		GPUSens: spec.GPUSens,
	}
	for _, ph := range spec.Phases {
		p.Phases = append(p.Phases, kernelsim.Phase{Frac: ph.Frac, BytesPerOp: ph.BytesPerOp})
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if scale <= 0 {
		return nil, fmt.Errorf("corun: non-positive scale %v", scale)
	}
	return &Instance{ID: id, Prog: p, Scale: scale, Label: spec.Name}, nil
}

// Option configures NewSystem.
type Option func(*System)

// WithPowerCap sets the package power cap in watts (0 = uncapped).
func WithPowerCap(w float64) Option {
	return func(s *System) { s.cap = units.Watts(w) }
}

// WithDomainCaps sets RAPL-style per-plane caps enforced alongside the
// package cap; zero planes are unenforced.
func WithDomainCaps(dc DomainCaps) Option {
	return func(s *System) { s.domains = dc }
}

// WithThermalLimit overrides the machine's throttle trip point in
// degrees Celsius (0 disables the thermal model).
func WithThermalLimit(tmaxC float64) Option {
	return func(s *System) { s.tmax = &tmaxC }
}

// WithMachine replaces the default i7-3520M-like machine description.
func WithMachine(m *Machine) Option {
	return func(s *System) { s.cfg = m }
}

// DefaultMachine returns the Ivy Bridge i7-3520M-like machine the
// paper evaluates on.
func DefaultMachine() *Machine { return apu.DefaultConfig() }

// KaveriMachine returns an AMD A10-7850K-like desktop APU preset.
func KaveriMachine() *Machine { return apu.KaveriConfig() }

// WithCharacterizationLevels overrides the number of micro-benchmark
// bandwidth levels used to characterize the degradation space (the
// paper uses 11 over 0-11 GB/s).
func WithCharacterizationLevels(n int) Option {
	return func(s *System) { s.charLevels = n }
}

// WithCharacterizationFrom loads a previously saved characterization
// (see System.SaveCharacterization) instead of re-measuring the
// degradation space — the deployment path where the offline stage ran
// elsewhere.
func WithCharacterizationFrom(r io.Reader) Option {
	return func(s *System) { s.charSource = r }
}

// System is the built co-scheduling runtime: machine model, memory
// model, and the one-time micro-benchmark characterization.
type System struct {
	cfg        *apu.Config
	mem        *memsys.Model
	cap        units.Watts
	domains    apu.DomainCaps
	tmax       *float64
	charLevels int
	charSource io.Reader
	char       *model.Characterization
}

// SaveCharacterization persists the system's measured degradation
// space; load it into another System with WithCharacterizationFrom.
func (s *System) SaveCharacterization(w io.Writer) error {
	return s.char.Save(w)
}

// NewSystem builds the runtime and runs the characterization pass.
func NewSystem(opts ...Option) (*System, error) {
	s := &System{
		cfg:        apu.DefaultConfig(),
		mem:        memsys.Default(),
		charLevels: 11,
	}
	for _, o := range opts {
		o(s)
	}
	if s.tmax != nil {
		tp := s.cfg.Thermal
		tp.TMaxC = *s.tmax
		s.cfg = s.cfg.WithThermal(tp)
	}
	if err := s.cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.cfg.CheckCaps(s.cap, s.domains); err != nil {
		return nil, err
	}
	if s.charSource != nil {
		char, err := model.LoadCharacterization(s.charSource, s.cfg)
		if err != nil {
			return nil, err
		}
		s.char = char
		return s, nil
	}
	var levels []units.GBps
	if s.charLevels != 11 {
		if s.charLevels < 2 {
			return nil, fmt.Errorf("corun: need at least 2 characterization levels, got %d", s.charLevels)
		}
		levels = microLevels(s.charLevels)
	}
	char, err := model.Characterize(model.CharacterizeOptions{Cfg: s.cfg, Mem: s.mem, Levels: levels})
	if err != nil {
		return nil, err
	}
	s.char = char
	return s, nil
}

func microLevels(n int) []units.GBps {
	out := make([]units.GBps, n)
	for i := range out {
		out[i] = units.GBps(11 * float64(i) / float64(n-1))
	}
	return out
}

// Machine returns the machine description the system simulates.
func (s *System) Machine() *Machine { return s.cfg }

// PowerCap returns the configured cap (0 = uncapped).
func (s *System) PowerCap() Watts { return s.cap }

// DomainCaps returns the configured per-plane caps (zero planes are
// unenforced).
func (s *System) DomainCaps() DomainCaps { return s.domains }

// Prepare profiles the batch offline and assembles the predictive
// model and scheduling context for it.
func (s *System) Prepare(batch []*Instance) (*Workload, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("corun: empty batch")
	}
	for i, in := range batch {
		if in == nil {
			return nil, fmt.Errorf("corun: nil instance at %d", i)
		}
		if in.ID != i {
			return nil, fmt.Errorf("corun: instance %q has ID %d at position %d; IDs must equal positions", in.Label, in.ID, i)
		}
	}
	prof, err := profile.Collect(s.cfg, s.mem, batch)
	if err != nil {
		return nil, err
	}
	pred, err := model.NewPredictor(s.char, prof)
	if err != nil {
		return nil, err
	}
	// The memoizing wrapper persists for the workload's lifetime, so
	// planning the same batch repeatedly (or under several policies)
	// answers each staged-interpolation query once.
	cached, err := model.NewCachedPredictor(pred, s.cfg)
	if err != nil {
		return nil, err
	}
	cx, err := core.NewContext(cached, s.cfg, s.cap)
	if err != nil {
		return nil, err
	}
	cx.Domains = s.domains
	return &Workload{sys: s, batch: batch, cx: cx}, nil
}

// PrepareCalibrated is Prepare plus online model calibration: one probe
// co-run per (job, device) against a reference stressor corrects each
// job's predicted degradations for latency sensitivity the bandwidth-
// only model cannot see (section V.C's lightweight online estimation).
// Costs 2N short measured runs; dramatically tightens predictions for
// latency-sensitive outliers like dwt2d.
func (s *System) PrepareCalibrated(batch []*Instance) (*Workload, error) {
	w, err := s.Prepare(batch)
	if err != nil {
		return nil, err
	}
	base, ok := model.Unwrap(w.cx.Oracle.(model.Oracle)).(*model.Predictor)
	if !ok {
		return nil, fmt.Errorf("corun: internal: unexpected oracle type")
	}
	cal, err := model.NewCalibratedPredictor(base, model.CalibrateOptions{Batch: batch})
	if err != nil {
		return nil, err
	}
	cached, err := model.NewCachedPredictor(cal, s.cfg)
	if err != nil {
		return nil, err
	}
	cx, err := core.NewContext(cached, s.cfg, s.cap)
	if err != nil {
		return nil, err
	}
	cx.Domains = s.domains
	w.cx = cx
	return w, nil
}

// Workload is a prepared batch: profiles, predictions, and scheduling
// context.
type Workload struct {
	sys   *System
	batch []*Instance
	cx    *core.Context
}

// Batch returns the prepared instances.
func (w *Workload) Batch() []*Instance { return w.batch }

// defaultPlanSeed drives the stochastic parts of the planners (HCS+
// refinement sampling, the metaheuristics, the random baseline plan)
// when a policy is planned through the facade.
const defaultPlanSeed = 7

// Policies lists every registered scheduling policy by canonical name.
// Any of them can be passed to Workload.Schedule.
func Policies() []string { return policy.Names() }

// PolicyInfo describes one registered policy.
type PolicyInfo = policy.Info

// DescribePolicies returns the registered policies with their aliases
// and one-line descriptions.
func DescribePolicies() []PolicyInfo { return policy.List() }

// Schedule plans the batch with a registered planned policy, resolved
// by name through the policy registry ("hcs", "hcs+", "optimal",
// "anneal", "genetic", or any alias). Unknown names return an error
// listing the valid ones; the dispatchers ("random", "default") make
// no plan and return an error too (see RunPolicy).
func (w *Workload) Schedule(policyName string) (*Schedule, error) {
	return w.ScheduleSeeded(policyName, defaultPlanSeed)
}

// ScheduleSeeded is Schedule with an explicit seed for the stochastic
// planners; deterministic policies ignore it.
func (w *Workload) ScheduleSeeded(policyName string, seed int64) (*Schedule, error) {
	return policy.Plan(policyName, w.cx, policy.Options{Seed: seed})
}

// ExplainPlan writes a human-readable account of a schedule: per-job
// preferences and solo times, queue placements, and the frequency
// choices the runtime will make at each dispatch.
func (w *Workload) ExplainPlan(out io.Writer, s *Schedule) error {
	labels := make([]string, len(w.batch))
	for i, in := range w.batch {
		labels[i] = in.Label
	}
	return w.cx.ExplainPlan(out, s, labels)
}

// PredictedMakespan evaluates a schedule on the predictive model.
func (w *Workload) PredictedMakespan(s *Schedule) (Seconds, error) {
	return w.cx.PredictedMakespan(s)
}

// LowerBound computes the paper's lower bound on the optimal makespan.
func (w *Workload) LowerBound() (Seconds, error) {
	return w.cx.LowerBound()
}

// Report summarizes one executed run.
type Report struct {
	Makespan      Seconds
	AvgPower      Watts
	MaxPower      Watts
	EnergyJ       float64
	CapViolations int
	MaxExcess     Watts
	Completions   []Completion
	Power         *PowerTrace

	// Per-plane and thermal accounting (see the apu domain model).
	AvgPP0    Watts
	AvgPP1    Watts
	MaxTempC  float64
	Throttles int
	// Binding names the constraint that bound the run: a plane or
	// package cap, the thermal limit, or none.
	Binding Constraint
}

// WriteGantt renders the run as an ASCII Gantt chart: one lane per
// concurrently running job on each device, the time axis scaled to
// width columns.
func (r *Report) WriteGantt(w io.Writer, width int) error {
	return gantt.RenderParts(w, r.Completions, r.Makespan, width)
}

func reportOf(r *sim.Result) *Report {
	return &Report{
		Makespan:      r.Makespan,
		AvgPower:      r.AvgPower,
		MaxPower:      r.MaxSample,
		EnergyJ:       r.EnergyJ,
		CapViolations: r.CapViolations,
		MaxExcess:     r.MaxExcess,
		Completions:   r.Completions,
		Power:         r.Power,
		AvgPP0:        r.AvgPP0,
		AvgPP1:        r.AvgPP1,
		MaxTempC:      r.MaxTempC,
		Throttles:     r.Throttles,
		Binding:       r.Binding,
	}
}

// Run executes a planned schedule on the simulated machine.
func (w *Workload) Run(s *Schedule) (*Report, error) {
	r, err := w.cx.Execute(s, w.batch, w.execOpts())
	if err != nil {
		return nil, err
	}
	return reportOf(r), nil
}

// RunPolicy runs the batch under any registered policy. A planned
// policy's schedule (planned with seed) is executed and returned; a
// dispatcher ("random", "default") places jobs at run time under the
// GPU-biased governor and returns a nil schedule.
func (w *Workload) RunPolicy(policyName string, seed int64) (*Schedule, *Report, error) {
	p, err := policy.Parse(policyName)
	if err != nil {
		return nil, nil, err
	}
	opts := policy.Options{Seed: seed}
	if d, ok := p.(policy.Dispatcher); ok {
		r, err := d.Dispatch(w.execOpts(), w.batch, w.cx.Oracle, opts)
		if err != nil {
			return nil, nil, err
		}
		return nil, reportOf(r), nil
	}
	plan, err := policy.PlanWith(p, w.cx, opts)
	if err != nil {
		return nil, nil, err
	}
	rep, err := w.Run(plan)
	if err != nil {
		return nil, nil, err
	}
	return plan, rep, nil
}

// RunRandom executes the Random baseline with the given seed; the cap
// is enforced by the bias's reactive governor.
func (w *Workload) RunRandom(seed int64, bias Bias) (*Report, error) {
	r, err := core.ExecuteRandom(w.execOpts(), w.batch, seed, bias)
	if err != nil {
		return nil, err
	}
	return reportOf(r), nil
}

// RunDefault executes the Default baseline (ranking partition, CPU
// multiprogramming) under the bias's reactive governor.
func (w *Workload) RunDefault(bias Bias) (*Report, error) {
	r, err := core.ExecuteDefault(w.execOpts(), w.batch, w.cx.Oracle, bias)
	if err != nil {
		return nil, err
	}
	return reportOf(r), nil
}

// StandaloneTime returns the profiled solo time of batch job i on a
// device at the highest cap-feasible frequency.
func (w *Workload) StandaloneTime(i int, d Device) (Seconds, error) {
	if err := w.checkJob(i); err != nil {
		return 0, err
	}
	t, ok := w.cx.BestSoloTime(i, d)
	if !ok {
		return 0, fmt.Errorf("corun: job %d has no cap-feasible operating point on %v", i, d)
	}
	return t, nil
}

func (w *Workload) execOpts() core.ExecOptions {
	return core.ExecOptions{Cfg: w.sys.cfg, Mem: w.sys.mem, Cap: w.sys.cap, Domains: w.sys.domains}
}

// Online serving re-exports; see the internal/online package docs.
type (
	// Arrival is one job arriving at an online server.
	Arrival = online.Arrival
	// ServeResult summarizes a served arrival stream.
	ServeResult = online.Result
	// JobOutcome records one served job's latency.
	JobOutcome = online.JobOutcome
)

// GenerateArrivals produces a seeded random arrival stream over the
// benchmark set (see online.GenerateArrivals).
func GenerateArrivals(n int, meanGap float64, seed int64) ([]Arrival, error) {
	return online.GenerateArrivals(n, meanGap, seed)
}

// ArrivalOf builds an arrival of the named benchmark at the given
// simulated time with the given input scale.
func ArrivalOf(name string, at, scale float64) (Arrival, error) {
	prog, err := workload.ByName(name)
	if err != nil {
		return Arrival{}, err
	}
	return Arrival{At: Seconds(at), Prog: prog, Scale: scale, Label: name}, nil
}

// Serve runs an arrival stream through the online epoch scheduler on
// this system, scheduling each epoch's queue with the named registry
// policy ("hcs+", "random", ...).
func (s *System) Serve(arrivals []Arrival, policy string, seed int64) (*ServeResult, error) {
	return online.Serve(online.Options{
		Cfg: s.cfg, Mem: s.mem, Char: s.char, Cap: s.cap, Domains: s.domains,
		Policy: policy, Seed: seed,
	}, arrivals)
}

// Cluster re-exports; see the internal/cluster package docs.
type (
	// Balancer selects a cluster's job-placement policy.
	Balancer = cluster.Balancer
	// ClusterResult summarizes a fleet run.
	ClusterResult = cluster.Result
)

// Cluster balancing policies.
const (
	RoundRobin    = cluster.RoundRobin
	LeastLoaded   = cluster.LeastLoaded
	AffinityAware = cluster.AffinityAware
)

// ServeCluster balances an arrival stream across a fleet of identical
// nodes (each a copy of this system) and serves every node's share
// with the online epoch scheduler.
func (s *System) ServeCluster(arrivals []Arrival, nodes int, bal Balancer, policy string, seed int64) (*ClusterResult, error) {
	return cluster.Serve(cluster.Options{
		Cfg: s.cfg, Mem: s.mem, Char: s.char,
		Nodes: nodes, CapPerNode: s.cap,
		Balancer: bal, Policy: policy, Seed: seed,
	}, arrivals)
}

// PredictPairDegradation returns the model's predicted mutual
// degradations of batch job cpuJob running on the CPU beside gpuJob on
// the GPU, both at their maximum frequencies (no cap applied — this is
// the raw section-V model output).
func (w *Workload) PredictPairDegradation(cpuJob, gpuJob int) (cpuSide, gpuSide float64, err error) {
	if err := w.checkJob(cpuJob); err != nil {
		return 0, 0, err
	}
	if err := w.checkJob(gpuJob); err != nil {
		return 0, 0, err
	}
	cmax := w.sys.cfg.MaxFreqIndex(apu.CPU)
	gmax := w.sys.cfg.MaxFreqIndex(apu.GPU)
	o := w.cx.Oracle
	return o.Degradation(cpuJob, apu.CPU, cmax, gpuJob, gmax),
		o.Degradation(gpuJob, apu.GPU, gmax, cpuJob, cmax), nil
}

// MeasurePairDegradation measures the same quantities on the simulated
// machine (the reproduction's ground truth): each side runs start to
// finish while the other side restarts continuously.
func (w *Workload) MeasurePairDegradation(cpuJob, gpuJob int) (cpuSide, gpuSide float64, err error) {
	if err := w.checkJob(cpuJob); err != nil {
		return 0, 0, err
	}
	if err := w.checkJob(gpuJob); err != nil {
		return 0, 0, err
	}
	cmax := w.sys.cfg.MaxFreqIndex(apu.CPU)
	gmax := w.sys.cfg.MaxFreqIndex(apu.GPU)
	opts := sim.Options{Cfg: w.sys.cfg, Mem: w.sys.mem}
	ci := &workload.Instance{ID: 0, Prog: w.batch[cpuJob].Prog, Scale: w.batch[cpuJob].Scale, Label: w.batch[cpuJob].Label}
	gi := &workload.Instance{ID: 1, Prog: w.batch[gpuJob].Prog, Scale: w.batch[gpuJob].Scale, Label: w.batch[gpuJob].Label}
	a, err := sim.CoRun(opts, ci, apu.CPU, gi, cmax, gmax)
	if err != nil {
		return 0, 0, err
	}
	b, err := sim.CoRun(opts, gi, apu.GPU, ci, cmax, gmax)
	if err != nil {
		return 0, 0, err
	}
	return a.Degradation, b.Degradation, nil
}

func (w *Workload) checkJob(i int) error {
	if i < 0 || i >= len(w.batch) {
		return fmt.Errorf("corun: job index %d outside batch of %d", i, len(w.batch))
	}
	return nil
}
