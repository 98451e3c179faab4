package core

import (
	"corun/internal/apu"
	"corun/internal/units"
)

// CoRunBeneficial is the Co-Run Theorem of section IV-A: given two
// jobs with standalone lengths l1, l2 and co-run degradations d1, d2
// (fractions), the co-run yields higher throughput than running the
// two jobs back to back if and only if the longer co-run's overhead is
// smaller than the shorter job's standalone length.
//
// With l1*(1+d1) >= l2*(1+d2), the theorem reads: co-run wins iff
// l1*d1 < l2.
func CoRunBeneficial(l1, l2 units.Seconds, d1, d2 float64) bool {
	// Normalize so that job 1 has the longer co-run length.
	if float64(l1)*(1+d1) < float64(l2)*(1+d2) {
		l1, l2 = l2, l1
		d1, d2 = d2, d1
	}
	return float64(l1)*d1 < float64(l2)
}

// PairTimes computes the finish times of two jobs that start together
// on the two processors, honouring the side note of section IV-B: only
// the overlapped part of the longer job suffers interference; its
// remainder runs undegraded.
//
// l1, l2 are standalone lengths at the chosen frequencies and d1, d2
// the mutual degradations. The returned times are each job's
// completion time; the pair's makespan is their maximum.
func PairTimes(l1, l2 units.Seconds, d1, d2 float64) (t1, t2 units.Seconds) {
	c1 := float64(l1) * (1 + d1)
	c2 := float64(l2) * (1 + d2)
	if c1 == c2 {
		return units.Seconds(c1), units.Seconds(c2)
	}
	if c1 < c2 {
		// Job 1 finishes first at c1. Job 2 progressed c1/(1+d2) worth
		// of standalone execution by then; the rest runs alone.
		rest := float64(l2) - c1/(1+d2)
		return units.Seconds(c1), units.Seconds(c1 + rest)
	}
	rest := float64(l1) - c2/(1+d1)
	return units.Seconds(c2 + rest), units.Seconds(c2)
}

// PairMakespan is the makespan of the co-run described by PairTimes.
func PairMakespan(l1, l2 units.Seconds, d1, d2 float64) units.Seconds {
	t1, t2 := PairTimes(l1, l2, d1, d2)
	if t1 > t2 {
		return t1
	}
	return t2
}

// NaivePairMakespan is the co-run makespan under the theorem's
// assumption that both jobs suffer their degradation over their whole
// runs: max of the two naive co-run lengths. The Co-Run Theorem is
// exactly the comparison of this quantity against sequential execution.
func NaivePairMakespan(l1, l2 units.Seconds, d1, d2 float64) units.Seconds {
	c1 := float64(l1) * (1 + d1)
	c2 := float64(l2) * (1 + d2)
	if c1 > c2 {
		return units.Seconds(c1)
	}
	return units.Seconds(c2)
}

// coRunEverBeneficial reports whether job i can benefit from co-running
// with any other job under the cap: the step-1 partition test. It
// tries both placements of every partner and every cap-feasible
// frequency pair, comparing the co-run makespan against the best
// sequential execution of the two jobs (each alone on its best
// cap-feasible device and level).
func (cx *Context) coRunEverBeneficial(i int) bool {
	n := cx.Oracle.NumJobs()
	for j := 0; j < n; j++ {
		if j == i {
			continue
		}
		if cx.pairEverBeneficial(i, j) || cx.pairEverBeneficial(j, i) {
			return true
		}
	}
	return false
}

// pairEverBeneficial checks placement (c on CPU, g on GPU) for any
// feasible frequency pair whose co-run beats sequential execution.
func (cx *Context) pairEverBeneficial(c, g int) bool {
	o := cx.Oracle
	_, _, seqC, okC := cx.BestSoloAnywhere(c)
	_, _, seqG, okG := cx.BestSoloAnywhere(g)
	if !okC || !okG {
		return false
	}
	seq := seqC + seqG
	for _, fp := range cx.feasiblePairs(c, g) {
		dc := o.Degradation(c, apu.CPU, fp.CPU, g, fp.GPU)
		dg := o.Degradation(g, apu.GPU, fp.GPU, c, fp.CPU)
		// The partition test applies the theorem's conservative
		// (naive-length) comparison, as step 1 prescribes.
		ms := NaivePairMakespan(o.StandaloneTime(c, apu.CPU, fp.CPU), o.StandaloneTime(g, apu.GPU, fp.GPU), dc, dg)
		if ms < seq {
			return true
		}
	}
	return false
}
