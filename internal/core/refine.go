package core

import (
	"math/rand"

	"corun/internal/units"
)

// RefineOptions configures the post local refinement (section IV-A.3).
type RefineOptions struct {
	// RandomSwaps is the number of random swap attempts in each of the
	// random steps; zero defaults to twice the job count.
	RandomSwaps int

	// Seed drives the random steps deterministically.
	Seed int64

	// SkipAdjacent, SkipRandomInQueue, and SkipCross disable the
	// corresponding refinement step (ablation).
	SkipAdjacent      bool
	SkipRandomInQueue bool
	SkipCross         bool
}

// Refine applies the paper's 3-step local refinement to a schedule and
// returns the (possibly improved) result together with its predicted
// makespan:
//
//  1. try swapping every two adjacent jobs on each device;
//  2. try swapping two randomly picked jobs within a device's list;
//  3. try swapping two jobs across the two devices.
//
// Every step keeps a swap only if the predicted makespan improves. The
// cost is linear in the job count and the sample counts.
//
// Every move is a swap, which is its own inverse, so each candidate is
// the working schedule with one swap applied in place, evaluated, and
// swapped back unless it is better. The input schedule is not modified.
func (cx *Context) Refine(s *Schedule, opts RefineOptions) (*Schedule, units.Seconds, error) {
	best := s.Clone()
	bestT, err := cx.PredictedMakespan(best)
	if err != nil {
		return nil, 0, err
	}
	n := len(best.CPUOrder) + len(best.GPUOrder)
	swaps := opts.RandomSwaps
	if swaps <= 0 {
		swaps = 2 * n
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	// try swaps *a and *b, two entries of best's queues, and keeps the
	// swap if it improves the predicted makespan. Swaps only permute a
	// valid schedule, so candidates skip validation and the memo.
	try := func(a, b *int) {
		*a, *b = *b, *a
		t, err := cx.predictedMakespanUncached(best)
		if err == nil && t < bestT {
			bestT = t
			return
		}
		*a, *b = *b, *a
	}

	// Step 1: adjacent swaps, CPU list then GPU list.
	if !opts.SkipAdjacent {
		for _, q := range [][]int{best.CPUOrder, best.GPUOrder} {
			for i := 0; i+1 < len(q); i++ {
				try(&q[i], &q[i+1])
			}
		}
	}

	// Step 2: random in-device swaps.
	for k := 0; !opts.SkipRandomInQueue && k < swaps; k++ {
		q := best.CPUOrder
		if rng.Intn(2) != 0 {
			q = best.GPUOrder
		}
		if len(q) < 2 {
			continue
		}
		i, j := rng.Intn(len(q)), rng.Intn(len(q))
		if i == j {
			continue
		}
		try(&q[i], &q[j])
	}

	// Step 3: random cross-device swaps.
	for k := 0; !opts.SkipCross && k < swaps; k++ {
		if len(best.CPUOrder) == 0 || len(best.GPUOrder) == 0 {
			break
		}
		i, j := rng.Intn(len(best.CPUOrder)), rng.Intn(len(best.GPUOrder))
		try(&best.CPUOrder[i], &best.GPUOrder[j])
	}

	return best, bestT, nil
}

// HCSPlus runs HCS followed by the post local refinement.
func (cx *Context) HCSPlus(hcsOpts HCSOptions, refOpts RefineOptions) (*Schedule, units.Seconds, error) {
	s, err := cx.HCS(hcsOpts)
	if err != nil {
		return nil, 0, err
	}
	return cx.Refine(s, refOpts)
}
