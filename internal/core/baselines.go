package core

import (
	"fmt"
	"math/rand"
	"sort"

	"corun/internal/apu"
	"corun/internal/sim"
	"corun/internal/units"
	"corun/internal/workload"
)

// randomDispatcher implements the Random baseline (section VI-A):
// whenever a processor goes idle it picks a random remaining job — or
// occasionally leaves the processor idle until the other device's
// current job completes, since some jobs prefer running alone.
type randomDispatcher struct {
	rng       *rand.Rand
	remaining []int
	batch     []*workload.Instance

	// idleUntil[dev] records the co-runner the device decided to wait
	// out; the decision holds until that job changes.
	idleUntil [apu.NumDevices]*workload.Instance
	idleSet   [apu.NumDevices]bool
}

func newRandomDispatcher(batch []*workload.Instance, seed int64) *randomDispatcher {
	d := &randomDispatcher{rng: rand.New(rand.NewSource(seed)), batch: batch}
	for i := range batch {
		d.remaining = append(d.remaining, i)
	}
	return d
}

// Next implements sim.Dispatcher.
func (d *randomDispatcher) Next(dev apu.Device, view *sim.View) *sim.Dispatch {
	if len(d.remaining) == 0 {
		return nil
	}
	var other *workload.Instance
	if dev == apu.CPU {
		other = view.GPUJob
	} else if len(view.CPUJobs) > 0 {
		other = view.CPUJobs[0]
	}

	// Honour a standing idle decision while the co-runner is unchanged.
	if d.idleSet[dev] {
		if other != nil && other == d.idleUntil[dev] {
			return nil
		}
		d.idleSet[dev] = false
	}

	// Idling is only an option when the other device is busy;
	// otherwise the machine would deadlock.
	options := len(d.remaining)
	if other != nil {
		options++
	}
	pick := d.rng.Intn(options)
	if pick == len(d.remaining) {
		d.idleSet[dev] = true
		d.idleUntil[dev] = other
		return nil
	}
	j := d.remaining[pick]
	d.remaining = append(d.remaining[:pick], d.remaining[pick+1:]...)
	return &sim.Dispatch{Inst: d.batch[j], CPUFreq: -1, GPUFreq: -1}
}

// ExecuteRandom runs the Random baseline once with the given seed. The
// power cap is enforced by the biased reactive governor, as in the
// paper's comparison (GPU-biased by default there).
func ExecuteRandom(opts ExecOptions, batch []*workload.Instance, seed int64, bias sim.Bias) (*sim.Result, error) {
	simOpts := sim.Options{
		Cfg:        opts.Cfg,
		Mem:        opts.Mem,
		PowerCap:   opts.Cap,
		DomainCaps: opts.Domains,
	}
	if opts.Cap > 0 || opts.Domains.Any() {
		simOpts.Governor = &sim.BiasedGovernor{Cap: opts.Cap, Domains: opts.Domains, Bias: bias}
	}
	return sim.Run(simOpts, newRandomDispatcher(batch, seed))
}

// RandomAverage runs ExecuteRandom over n seeds (0..n-1 offset by
// seedBase) and returns the mean makespan along with the individual
// results. The paper averages 20 seeds.
func RandomAverage(opts ExecOptions, batch []*workload.Instance, n int, seedBase int64, bias sim.Bias) (units.Seconds, []*sim.Result, error) {
	if n <= 0 {
		return 0, nil, fmt.Errorf("core: need at least one random seed")
	}
	var results []*sim.Result
	sum := 0.0
	for s := 0; s < n; s++ {
		r, err := ExecuteRandom(opts, batch, seedBase+int64(s), bias)
		if err != nil {
			return 0, nil, err
		}
		results = append(results, r)
		sum += float64(r.Makespan)
	}
	return units.Seconds(sum / float64(n)), results, nil
}

// DefaultPartition reproduces the Default baseline's job placement:
// rank programs by the ratio of standalone CPU time to GPU time at the
// highest frequency, give the most GPU-leaning prefix to the GPU, and
// choose the split that minimizes the larger partition's total
// execution time.
func DefaultPartition(o Oracle, cfg *apu.Config) (cpuJobs, gpuJobs []int) {
	n := o.NumJobs()
	cmax := cfg.MaxFreqIndex(apu.CPU)
	gmax := cfg.MaxFreqIndex(apu.GPU)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	ratio := func(i int) float64 {
		return float64(o.StandaloneTime(i, apu.CPU, cmax)) / float64(o.StandaloneTime(i, apu.GPU, gmax))
	}
	sort.SliceStable(order, func(a, b int) bool { return ratio(order[a]) > ratio(order[b]) })

	bestK, bestMax := 0, -1.0
	for k := 0; k <= n; k++ {
		sumG, sumC := 0.0, 0.0
		for _, j := range order[:k] {
			sumG += float64(o.StandaloneTime(j, apu.GPU, gmax))
		}
		for _, j := range order[k:] {
			sumC += float64(o.StandaloneTime(j, apu.CPU, cmax))
		}
		m := sumG
		if sumC > m {
			m = sumC
		}
		if bestMax < 0 || m < bestMax {
			bestK, bestMax = k, m
		}
	}
	gpuJobs = append([]int(nil), order[:bestK]...)
	cpuJobs = append([]int(nil), order[bestK:]...)
	return cpuJobs, gpuJobs
}

// ExecuteDefault runs the Default baseline: the GPU partition executes
// sequentially while the whole CPU partition is launched at once and
// time-shares the cores under the OS scheduler, exactly the behaviour
// the paper attributes to the Linux default schedule. The biased
// reactive governor enforces the cap.
func ExecuteDefault(opts ExecOptions, batch []*workload.Instance, o Oracle, bias sim.Bias) (*sim.Result, error) {
	cpuJobs, gpuJobs := DefaultPartition(o, opts.Cfg)
	var cpuQ, gpuQ []*workload.Instance
	for _, j := range cpuJobs {
		cpuQ = append(cpuQ, batch[j])
	}
	for _, j := range gpuJobs {
		gpuQ = append(gpuQ, batch[j])
	}
	simOpts := sim.Options{
		Cfg:        opts.Cfg,
		Mem:        opts.Mem,
		PowerCap:   opts.Cap,
		DomainCaps: opts.Domains,
		CPUSlots:   maxInt(1, len(cpuQ)),
	}
	if opts.Cap > 0 || opts.Domains.Any() {
		simOpts.Governor = &sim.BiasedGovernor{Cap: opts.Cap, Domains: opts.Domains, Bias: bias}
	}
	return sim.Run(simOpts, sim.NewQueueDispatcher(cpuQ, gpuQ, nil))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
