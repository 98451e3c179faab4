package core

import (
	"fmt"
	"sort"

	"corun/internal/apu"
)

// DefaultPreferenceThreshold is D of step 2: a job whose CPU and GPU
// times differ by no more than 20% is non-preferred.
const DefaultPreferenceThreshold = 0.20

// Preference labels a job's processor affinity (step 2).
type Preference int

// Preference values.
const (
	CPUPreferred Preference = iota
	GPUPreferred
	NonPreferred
)

// String implements fmt.Stringer.
func (p Preference) String() string {
	switch p {
	case CPUPreferred:
		return "CPU"
	case GPUPreferred:
		return "GPU"
	default:
		return "Non"
	}
}

// Partition is the step-1 split: S_co can benefit from co-running,
// S_seq should run alone.
type Partition struct {
	SCo  []int
	SSeq []int
}

// PartitionJobs applies the Co-Run Theorem over all partners,
// placements, and cap-feasible frequency pairs (step 1, with the
// IV-A.2 changes).
func (cx *Context) PartitionJobs() Partition {
	var p Partition
	for i := 0; i < cx.Oracle.NumJobs(); i++ {
		if cx.coRunEverBeneficial(i) {
			p.SCo = append(p.SCo, i)
		} else {
			p.SSeq = append(p.SSeq, i)
		}
	}
	return p
}

// Categorize labels each job by processor preference using its best
// cap-feasible standalone times (step 2, with the IV-A.2 change: times
// at the highest frequency the cap allows). Jobs with no feasible
// operating point on one device prefer the other; jobs feasible
// nowhere are reported in the error.
func (cx *Context) Categorize(jobs []int, threshold float64) (map[int]Preference, error) {
	if threshold <= 0 {
		threshold = DefaultPreferenceThreshold
	}
	out := make(map[int]Preference, len(jobs))
	for _, i := range jobs {
		tc, okC := cx.BestSoloTime(i, apu.CPU)
		tg, okG := cx.BestSoloTime(i, apu.GPU)
		switch {
		case !okC && !okG:
			return nil, fmt.Errorf("core: job %d has no cap-feasible operating point", i)
		case !okC:
			out[i] = GPUPreferred
		case !okG:
			out[i] = CPUPreferred
		case float64(tc) > float64(tg)*(1+threshold):
			out[i] = GPUPreferred
		case float64(tg) > float64(tc)*(1+threshold):
			out[i] = CPUPreferred
		default:
			out[i] = NonPreferred
		}
	}
	return out, nil
}

// HCSOptions tunes the heuristic.
type HCSOptions struct {
	// PreferenceThreshold is D of step 2; zero uses the default 20%.
	PreferenceThreshold float64

	// DisablePartition skips step 1 (ablation): every job joins S_co.
	DisablePartition bool

	// DisablePreference skips step 2 (ablation): every job is treated
	// as non-preferred.
	DisablePreference bool
}

// HCS runs the heuristic co-scheduling algorithm (section IV-A) and
// returns the planned schedule.
func (cx *Context) HCS(opts HCSOptions) (*Schedule, error) {
	n := cx.Oracle.NumJobs()
	if n == 0 {
		return &Schedule{Exclusive: map[int]bool{}}, nil
	}

	// Step 1: partition into co-run and sequential sets.
	var part Partition
	if opts.DisablePartition {
		for i := 0; i < n; i++ {
			part.SCo = append(part.SCo, i)
		}
	} else {
		part = cx.PartitionJobs()
	}

	// Step 2: categorize the co-run set by processor preference.
	prefs, err := cx.Categorize(part.SCo, opts.PreferenceThreshold)
	if err != nil {
		return nil, err
	}
	if opts.DisablePreference {
		for k := range prefs {
			prefs[k] = NonPreferred
		}
	}

	// Step 3: greedy planning on predicted times.
	s, err := cx.greedyPlan(part.SCo, prefs)
	if err != nil {
		return nil, err
	}

	// Sequential set: each job alone on its best device.
	seq := append([]int(nil), part.SSeq...)
	// Longer jobs first, so short exclusives fill the tail.
	sort.Slice(seq, func(a, b int) bool {
		_, _, ta, _ := cx.BestSoloAnywhere(seq[a])
		_, _, tb, _ := cx.BestSoloAnywhere(seq[b])
		return ta > tb
	})
	for _, j := range seq {
		dev, _, _, ok := cx.BestSoloAnywhere(j)
		if !ok {
			return nil, fmt.Errorf("core: job %d infeasible under cap %v", j, cx.Cap)
		}
		if dev == apu.CPU {
			s.CPUOrder = append(s.CPUOrder, j)
		} else {
			s.GPUOrder = append(s.GPUOrder, j)
		}
		s.Exclusive[j] = true
	}
	if err := s.Validate(n); err != nil {
		return nil, err
	}
	return s, nil
}

// greedyPlan is step 3: simulate the schedule on predicted times,
// always filling an idle device from its preference-ordered candidate
// sets with the least-interference job.
func (cx *Context) greedyPlan(sco []int, prefs map[int]Preference) (*Schedule, error) {
	s := &Schedule{Exclusive: map[int]bool{}}
	// remaining lists the unassigned jobs in ascending order, so every
	// walk over it — candidate lists and the float sums of the steal
	// guard — runs in the same order on every call.
	remaining := append([]int(nil), sco...)
	sort.Ints(remaining)
	take := func(j int) {
		i := sort.SearchInts(remaining, j)
		remaining = append(remaining[:i], remaining[i+1:]...)
	}

	var cpuRun, gpuRun *plannedJob

	// remainingWorkOn estimates the other device's outstanding work:
	// its running job's remaining time plus the best solo times of all
	// still-unassigned jobs (which would otherwise run there).
	remainingWorkOn := func(dev apu.Device, run *plannedJob, exclude int) float64 {
		total := 0.0
		if run != nil {
			if t, ok := cx.BestSoloTime(run.idx, dev); ok {
				total += run.frac * float64(t)
			}
		}
		for _, j := range remaining {
			if j == exclude {
				continue
			}
			if t, ok := cx.BestSoloTime(j, dev); ok {
				total += float64(t)
			}
		}
		return total
	}

	pick := func(dev apu.Device, other *plannedJob) int {
		cand, class := cx.candidates(dev, remaining, prefs)
		if len(cand) == 0 {
			return -1
		}
		// Balance guard: stealing from the other device's preferred
		// set is only worthwhile if this device can finish the stolen
		// job before the other device would drain the rest — otherwise
		// the slow placement overhangs the makespan and the job is
		// better left for its preferred device.
		if class == otherPreference(dev) {
			// Stealing from the other device's preferred set: admit
			// only steals that finish before the other device would
			// drain the rest (the steal runs degraded, the drain
			// estimate stays optimistic), and among those prefer the
			// job with the smallest relocation penalty — the ratio of
			// its degraded time here to its time on its preferred
			// device.
			best, bestPenalty := -1, 0.0
			for _, j := range cand {
				t, ok := cx.BestSoloTime(j, dev)
				if !ok {
					continue
				}
				est := float64(t)
				if other != nil {
					c, g := j, other.idx
					if dev == apu.GPU {
						c, g = other.idx, j
					}
					if d, ok := cx.MinPairDegradation(c, g); ok {
						est *= 1 + d
					}
				}
				if est > remainingWorkOn(dev.Other(), other, j) {
					continue
				}
				tPref, ok := cx.BestSoloTime(j, dev.Other())
				if !ok || tPref <= 0 {
					continue
				}
				penalty := est / float64(tPref)
				if best < 0 || penalty < bestPenalty {
					best, bestPenalty = j, penalty
				}
			}
			return best
		}
		if other == nil {
			// No co-runner: take the longest job to keep devices busy.
			best, bestT := -1, -1.0
			for _, j := range cand {
				t, ok := cx.BestSoloTime(j, dev)
				if !ok {
					continue
				}
				if float64(t) > bestT {
					best, bestT = j, float64(t)
				}
			}
			return best
		}
		// Least combined interference against the running job.
		best, bestD := -1, 0.0
		for _, j := range cand {
			c, g := j, other.idx
			if dev == apu.GPU {
				c, g = other.idx, j
			}
			d, ok := cx.MinPairDegradation(c, g)
			if !ok {
				continue
			}
			if best < 0 || d < bestD {
				best, bestD = j, d
			}
		}
		return best
	}

	// Seed the GPU with the longest GPU-preferred job (step 3's
	// starting rule); pick() already falls back through the sets when
	// GPU-preferred is empty.
	const maxSteps = 1 << 20
	for step := 0; step < maxSteps; step++ {
		if gpuRun == nil {
			if j := pick(apu.GPU, cpuRun); j >= 0 {
				gpuRun = &plannedJob{idx: j, frac: 1}
				take(j)
				s.GPUOrder = append(s.GPUOrder, j)
			}
		}
		if cpuRun == nil {
			if j := pick(apu.CPU, gpuRun); j >= 0 {
				cpuRun = &plannedJob{idx: j, frac: 1}
				take(j)
				s.CPUOrder = append(s.CPUOrder, j)
			}
		}
		if cpuRun == nil && gpuRun == nil {
			if len(remaining) == 0 {
				return s, nil
			}
			return nil, fmt.Errorf("core: greedy plan stuck with %d jobs (cap infeasible?)", len(remaining))
		}

		// Advance predicted time to the earliest completion.
		ci, gi := -1, -1
		if cpuRun != nil {
			ci = cpuRun.idx
		}
		if gpuRun != nil {
			gi = gpuRun.idx
		}
		fp, dc, dg, ok := cx.ChoosePairFreqs(ci, gi)
		if !ok {
			return nil, fmt.Errorf("core: no feasible frequencies for pair (%d,%d)", ci, gi)
		}
		var cpuRate, gpuRate float64
		if cpuRun != nil {
			cpuRate = 1 / (float64(cx.Oracle.StandaloneTime(ci, apu.CPU, fp.CPU)) * (1 + dc))
		}
		if gpuRun != nil {
			gpuRate = 1 / (float64(cx.Oracle.StandaloneTime(gi, apu.GPU, fp.GPU)) * (1 + dg))
		}
		dt := 0.0
		switch {
		case cpuRun != nil && gpuRun != nil:
			dt = minPos(cpuRun.frac/cpuRate, gpuRun.frac/gpuRate)
		case cpuRun != nil:
			dt = cpuRun.frac / cpuRate
		default:
			dt = gpuRun.frac / gpuRate
		}
		if cpuRun != nil {
			cpuRun.frac -= cpuRate * dt
			if cpuRun.frac <= 1e-12 {
				cpuRun = nil
			}
		}
		if gpuRun != nil {
			gpuRun.frac -= gpuRate * dt
			if gpuRun.frac <= 1e-12 {
				gpuRun = nil
			}
		}
	}
	return nil, fmt.Errorf("core: greedy plan exceeded step limit")
}

// otherPreference names the preference class of the opposite device.
func otherPreference(dev apu.Device) Preference {
	if dev == apu.CPU {
		return GPUPreferred
	}
	return CPUPreferred
}

// candidates lists the remaining jobs in the preference order of the
// device: its preferred set first, then non-preferred, then the other
// device's preferred set (step 3's scheduling rule). It also reports
// which class the candidates came from. The list keeps remaining's
// ascending order.
func (cx *Context) candidates(dev apu.Device, remaining []int, prefs map[int]Preference) ([]int, Preference) {
	mine := CPUPreferred
	if dev == apu.GPU {
		mine = GPUPreferred
	}
	for _, want := range []Preference{mine, NonPreferred, otherPreference(dev)} {
		var out []int
		for _, j := range remaining {
			if prefs[j] == want {
				out = append(out, j)
			}
		}
		if len(out) > 0 {
			return out, want
		}
	}
	return nil, NonPreferred
}
