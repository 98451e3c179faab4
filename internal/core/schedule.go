package core

import (
	"fmt"
	"strconv"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// Schedule is a planned co-schedule: one dispatch order per device plus
// the set of jobs that must run exclusively (leaving the other device
// idle). Frequencies are not stored — they are a pure function of the
// co-running pair via Context.ChoosePairFreqs, both in planning and in
// execution, exactly as the runtime re-evaluates DVFS at each dispatch.
type Schedule struct {
	// CPUOrder and GPUOrder hold job indices in dispatch order.
	CPUOrder []int
	GPUOrder []int

	// Exclusive marks jobs that run with the other device idle (the
	// S_seq set of step 1).
	Exclusive map[int]bool
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{
		CPUOrder:  append([]int(nil), s.CPUOrder...),
		GPUOrder:  append([]int(nil), s.GPUOrder...),
		Exclusive: make(map[int]bool, len(s.Exclusive)),
	}
	for k, v := range s.Exclusive {
		out.Exclusive[k] = v
	}
	return out
}

// Jobs returns every job index in the schedule.
func (s *Schedule) Jobs() []int {
	out := append([]int(nil), s.CPUOrder...)
	return append(out, s.GPUOrder...)
}

// Validate checks that the schedule covers each of n jobs exactly once.
func (s *Schedule) Validate(n int) error {
	seen := make([]bool, n)
	for _, j := range s.Jobs() {
		if j < 0 || j >= n {
			return fmt.Errorf("core: schedule references job %d outside [0,%d)", j, n)
		}
		if seen[j] {
			return fmt.Errorf("core: schedule lists job %d twice", j)
		}
		seen[j] = true
	}
	for j, ok := range seen {
		if !ok {
			return fmt.Errorf("core: schedule misses job %d", j)
		}
	}
	return nil
}

// String renders the schedule compactly.
func (s *Schedule) String() string {
	mark := func(j int) string {
		if s.Exclusive[j] {
			return fmt.Sprintf("%d!", j)
		}
		return fmt.Sprintf("%d", j)
	}
	cpu := make([]string, len(s.CPUOrder))
	for i, j := range s.CPUOrder {
		cpu[i] = mark(j)
	}
	gpu := make([]string, len(s.GPUOrder))
	for i, j := range s.GPUOrder {
		gpu[i] = mark(j)
	}
	return fmt.Sprintf("CPU:%v GPU:%v", cpu, gpu)
}

// plannedJob tracks one job's progress in the predicted evaluators;
// idx -1 marks an idle device.
type plannedJob struct {
	idx  int
	frac float64 // fraction of the job's work still to do
}

// idle is the plannedJob of a device running nothing.
var idle = plannedJob{idx: -1}

// start returns job j at the beginning of its run.
func start(j int) plannedJob { return plannedJob{idx: j, frac: 1} }

// memoKey encodes the schedule's planning-relevant content — both
// dispatch orders with per-job exclusivity marks — as the predicted-
// makespan memo key.
func (s *Schedule) memoKey() string {
	b := make([]byte, 0, 4*(len(s.CPUOrder)+len(s.GPUOrder))+1)
	appendQ := func(q []int) {
		for _, j := range q {
			b = strconv.AppendInt(b, int64(j), 10)
			if s.Exclusive[j] {
				b = append(b, '!')
			}
			b = append(b, ',')
		}
	}
	appendQ(s.CPUOrder)
	b = append(b, '|')
	appendQ(s.GPUOrder)
	return string(b)
}

// PredictedMakespan evaluates the schedule on predicted data: it walks
// the two queues with the same dispatch and exclusivity rules the
// executor uses, applying ChoosePairFreqs to every pairing and the
// side-note partial-overlap arithmetic to every segment. It is the
// objective function of the search policies, which revisit candidate
// schedules, so successful evaluations are memoized (bounded; see
// maxMakespanMemo).
func (cx *Context) PredictedMakespan(s *Schedule) (units.Seconds, error) {
	if err := s.Validate(cx.Oracle.NumJobs()); err != nil {
		return 0, err
	}
	key := s.memoKey()
	cx.mu.Lock()
	if t, ok := cx.msMemo[key]; ok {
		cx.mu.Unlock()
		return t, nil
	}
	cx.mu.Unlock()
	t, err := cx.predictedMakespanUncached(s)
	if err != nil {
		return 0, err
	}
	cx.mu.Lock()
	if len(cx.msMemo) < maxMakespanMemo {
		cx.msMemo[key] = t
	}
	cx.mu.Unlock()
	return t, nil
}

// predictedMakespanUncached is PredictedMakespan for a schedule known
// to be valid. It allocates nothing, so the refinement can call it on
// every candidate.
func (cx *Context) predictedMakespanUncached(s *Schedule) (units.Seconds, error) {
	cpuQ, gpuQ := s.CPUOrder, s.GPUOrder // the jobs not yet dispatched
	cpu, gpu := idle, idle
	now := 0.0

	const maxSegments = 1 << 20
	for seg := 0; seg < maxSegments; seg++ {
		// Dispatch, honouring exclusivity.
		if cpu.idx < 0 && len(cpuQ) > 0 && cx.mayDispatch(s, cpuQ[0], gpu.idx) {
			cpu = start(cpuQ[0])
			cpuQ = cpuQ[1:]
		}
		if gpu.idx < 0 && len(gpuQ) > 0 && cx.mayDispatch(s, gpuQ[0], cpu.idx) {
			gpu = start(gpuQ[0])
			gpuQ = gpuQ[1:]
		}
		if cpu.idx < 0 && gpu.idx < 0 {
			if len(cpuQ) == 0 && len(gpuQ) == 0 {
				return units.Seconds(now), nil
			}
			return 0, fmt.Errorf("core: schedule deadlocked with %d CPU / %d GPU jobs pending", len(cpuQ), len(gpuQ))
		}
		dt, err := cx.step(&cpu, &gpu)
		if err != nil {
			return 0, err
		}
		now += dt
	}
	return 0, fmt.Errorf("core: predicted evaluation exceeded segment limit")
}

// step advances the jobs running on the two devices (at least one of
// them not idle) to the earliest completion, at the frequencies
// ChoosePairFreqs picks for the pairing, and returns the time that
// took. A job that completes becomes idle.
func (cx *Context) step(cpu, gpu *plannedJob) (float64, error) {
	fp, dc, dg, ok := cx.ChoosePairFreqs(cpu.idx, gpu.idx)
	if !ok {
		return 0, fmt.Errorf("core: no cap-feasible frequencies for pair (%d,%d)", cpu.idx, gpu.idx)
	}
	var cpuRate, gpuRate float64 // fraction of job per second
	if cpu.idx >= 0 {
		cpuRate = 1 / (float64(cx.Oracle.StandaloneTime(cpu.idx, apu.CPU, fp.CPU)) * (1 + dc))
	}
	if gpu.idx >= 0 {
		gpuRate = 1 / (float64(cx.Oracle.StandaloneTime(gpu.idx, apu.GPU, fp.GPU)) * (1 + dg))
	}
	var dt float64
	switch {
	case cpu.idx >= 0 && gpu.idx >= 0:
		dt = minPos(cpu.frac/cpuRate, gpu.frac/gpuRate)
	case cpu.idx >= 0:
		dt = cpu.frac / cpuRate
	default:
		dt = gpu.frac / gpuRate
	}
	if cpu.idx >= 0 {
		cpu.frac -= cpuRate * dt
		if cpu.frac <= 1e-12 {
			*cpu = idle
		}
	}
	if gpu.idx >= 0 {
		gpu.frac -= gpuRate * dt
		if gpu.frac <= 1e-12 {
			*gpu = idle
		}
	}
	return dt, nil
}

// mayDispatch applies the exclusivity rule: an exclusive job waits for
// the other device to drain, and nothing starts beside a running
// exclusive job. other is the job running on the other device, -1 when
// it is idle.
func (cx *Context) mayDispatch(s *Schedule, job, other int) bool {
	if other < 0 {
		return true
	}
	return !s.Exclusive[job] && !s.Exclusive[other]
}

func minPos(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// scheduleDispatcher executes a Schedule on the real simulator with the
// same rules as the predicted evaluator.
type scheduleDispatcher struct {
	cx    *Context
	s     *Schedule
	batch []*workload.Instance
	cpuQ  []int
	gpuQ  []int
}

func newScheduleDispatcher(cx *Context, s *Schedule, batch []*workload.Instance) *scheduleDispatcher {
	return &scheduleDispatcher{
		cx: cx, s: s, batch: batch,
		cpuQ: append([]int(nil), s.CPUOrder...),
		gpuQ: append([]int(nil), s.GPUOrder...),
	}
}

// Next implements sim.Dispatcher.
func (d *scheduleDispatcher) Next(dev apu.Device, view *sim.View) *sim.Dispatch {
	var q *[]int
	if dev == apu.CPU {
		q = &d.cpuQ
	} else {
		q = &d.gpuQ
	}
	if len(*q) == 0 {
		return nil
	}
	head := (*q)[0]

	// Identify the job on the other device, if any.
	var other *workload.Instance
	if dev == apu.CPU {
		other = view.GPUJob
	} else if len(view.CPUJobs) > 0 {
		other = view.CPUJobs[0]
	}
	if other != nil && (d.s.Exclusive[head] || d.s.Exclusive[other.ID]) {
		return nil // wait for the other device to drain
	}

	otherIdx := -1
	if other != nil {
		otherIdx = other.ID
	}
	ci, gi := head, otherIdx
	if dev == apu.GPU {
		ci, gi = otherIdx, head
	}
	fp, _, _, ok := d.cx.ChoosePairFreqs(ci, gi)
	if !ok {
		// No feasible setting: fall back to the floor frequencies and
		// let the cap-violation accounting surface the problem.
		fp = FreqPair{0, 0}
	}
	*q = (*q)[1:]
	return &sim.Dispatch{Inst: d.batch[head], CPUFreq: fp.CPU, GPUFreq: fp.GPU}
}

// planGovernor re-applies the planned frequency choice to whatever pair
// is actually running. Dispatch directives already set pair frequencies
// at job starts; the governor covers the remaining transitions — most
// importantly a device draining its queue, after which the survivor
// must be re-upgraded to its best solo operating point instead of
// crawling at the stale co-run setting.
type planGovernor struct {
	cx *Context
}

// Adjust implements sim.Governor.
func (g *planGovernor) Adjust(power units.Watts, view *sim.View, cfg *apu.Config) (int, int) {
	ci, gi := -1, -1
	if len(view.CPUJobs) > 0 {
		ci = view.CPUJobs[0].ID
	}
	if view.GPUJob != nil {
		gi = view.GPUJob.ID
	}
	if ci < 0 && gi < 0 {
		return view.CPUFreq, view.GPUFreq
	}
	fp, _, _, ok := g.cx.ChoosePairFreqs(ci, gi)
	if !ok {
		return view.CPUFreq, view.GPUFreq
	}
	return fp.CPU, fp.GPU
}

// ExecOptions configures schedule execution on the simulator.
type ExecOptions struct {
	Cfg *apu.Config
	Mem *memsys.Model
	// Cap is the package power cap enforced/reported during execution.
	Cap units.Watts
	// Domains are optional per-plane caps enforced/reported alongside
	// Cap (see Context.Domains).
	Domains apu.DomainCaps
}

// Execute runs the schedule on the ground-truth simulator. Instance IDs
// in the batch must equal their indices (as produced by the workload
// package).
func (cx *Context) Execute(s *Schedule, batch []*workload.Instance, opts ExecOptions) (*sim.Result, error) {
	if err := s.Validate(len(batch)); err != nil {
		return nil, err
	}
	for i, in := range batch {
		if in.ID != i {
			return nil, fmt.Errorf("core: batch instance %d has ID %d; IDs must equal indices", i, in.ID)
		}
	}
	simOpts := sim.Options{
		Cfg:        opts.Cfg,
		Mem:        opts.Mem,
		PowerCap:   opts.Cap,
		DomainCaps: opts.Domains,
		Governor:   &planGovernor{cx: cx},
		// The planned schedule controls frequencies; start from the
		// floor so the first dispatch's directive decides.
		InitCPUFreq: sim.Pin(0),
		InitGPUFreq: sim.Pin(0),
	}
	return sim.Run(simOpts, newScheduleDispatcher(cx, s, batch))
}
