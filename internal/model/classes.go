package model

import (
	"math"

	"corun/internal/apu"
	"corun/internal/profile"
)

// Classed is the optional extension of Oracle that groups a batch's
// jobs into degradation classes, so memo tables can key on classes
// instead of job indices: a batch of 64 jobs drawn from 8 programs
// asks at most 8×8 distinct pair questions, not 64×64.
//
// The contract: two jobs share a class only if they answer every
// oracle query identically, bit for bit, except StandaloneTime. That
// covers StandalonePower, CoRunPower and CoRunSplit with the job in
// either slot, and Degradation with the job on either side of the
// pair. A class-keyed memo may therefore answer a query about job i
// with the value it stored for any other job of i's class.
type Classed interface {
	// DegradationClasses returns a fresh slice holding each job's
	// class; classes are numbered densely from 0 in order of first
	// appearance.
	DegradationClasses() []int
}

// jobClasses returns the oracle's degradation classes, or one class
// per job when it does not implement Classed. GroundTruthOracle keeps
// that fallback on purpose: it measures each co-run on the job's own
// instance, input scale included, so no two jobs are known to answer
// alike.
func jobClasses(o Oracle) []int {
	if c, ok := o.(Classed); ok {
		return c.DegradationClasses()
	}
	cls := make([]int, o.NumJobs())
	for i := range cls {
		cls[i] = i
	}
	return cls
}

// classify numbers n jobs densely: each job joins the class of the
// first earlier class representative it is the same as, or opens a new
// class.
func classify(n int, same func(i, j int) bool) []int {
	cls := make([]int, n)
	var reps []int
	for i := range cls {
		k := 0
		for k < len(reps) && !same(i, reps[k]) {
			k++
		}
		if k == len(reps) {
			reps = append(reps, i)
		}
		cls[i] = k
	}
	return cls
}

// sameProfileRows reports whether jobs i and j have bit-identical
// standalone bandwidth and power rows on both devices at every level —
// everything the Predictor's Degradation, CoRunPower and CoRunSplit
// read about a job. The time rows (which scale with the input) may
// differ.
func sameProfileRows(prof *profile.Standalone, i, j int) bool {
	for d := apu.CPU; d <= apu.GPU; d++ {
		for f := 0; f < prof.Cfg.NumFreqs(d); f++ {
			a, b := prof.At(i, d, f), prof.At(j, d, f)
			if math.Float64bits(float64(a.Bandwidth)) != math.Float64bits(float64(b.Bandwidth)) ||
				math.Float64bits(float64(a.Power)) != math.Float64bits(float64(b.Power)) {
				return false
			}
		}
	}
	return true
}

// DegradationClasses implements Classed: jobs with bit-identical
// bandwidth and power profiles share a class, which in practice means
// one class per program whatever the input scales.
func (p *Predictor) DegradationClasses() []int {
	return classify(p.NumJobs(), func(i, j int) bool { return sameProfileRows(p.Prof, i, j) })
}

// DegradationClasses implements Classed. It must not be inherited from
// the embedded Predictor: the learned corrections are per job, so two
// jobs share a class only if they share the base class and their
// correction factors are bit-identical on both devices.
func (cp *CalibratedPredictor) DegradationClasses() []int {
	base := cp.Predictor.DegradationClasses()
	return classify(cp.NumJobs(), func(i, j int) bool {
		return base[i] == base[j] &&
			math.Float64bits(cp.scale[i][apu.CPU]) == math.Float64bits(cp.scale[j][apu.CPU]) &&
			math.Float64bits(cp.scale[i][apu.GPU]) == math.Float64bits(cp.scale[j][apu.GPU])
	})
}
