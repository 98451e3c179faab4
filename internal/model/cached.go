package model

import (
	"fmt"
	"math"
	"sync/atomic"

	"corun/internal/apu"
	"corun/internal/units"
)

// Oracle is the prediction surface the scheduling algorithms consume —
// a structural mirror of core.Oracle, declared here so the model layer
// can wrap any oracle (Predictor, CalibratedPredictor,
// GroundTruthOracle) without importing the scheduling layer.
type Oracle interface {
	NumJobs() int
	StandaloneTime(i int, d apu.Device, f int) units.Seconds
	StandalonePower(i int, d apu.Device, f int) units.Watts
	Degradation(i int, dev apu.Device, f, j, g int) float64
	CoRunPower(i, f, j, g int) units.Watts
}

// CachedPredictor memoizes the oracle's Degradation queries — the one
// lookup worth caching: the staged-interpolation Predictor pays ~100 ns
// per query and the GroundTruthOracle a whole co-run simulation, and
// every planning pass (epoch after epoch in corund, permutation after
// permutation in the optimal search) asks for the same pairs again.
// The memo is a dense lock-free table indexed by (device, class, level,
// co-runner class, level), so a hit costs two atomic loads — a
// mutex-guarded map would cost more than recomputing the prediction.
// The remaining oracle queries are pure table reads (StandaloneTime/
// Power, and CoRunPower, which is the standalone-power sum) at ~4 ns
// each; they are delegated uncached because no memo can beat them.
//
// The memo keys on degradation classes (see Classed), not job indices:
// jobs of one class answer every Degradation query alike, so a batch
// of 64 jobs from 8 programs fills an 8×8-class table once instead of
// a 64×64-job table. An oracle that does not report classes gets one
// class per job.
//
// It is safe for concurrent use. The memo keys on classes and
// frequency levels only, which makes it cap-independent: changing the
// power cap needs a new scheduling context but may keep the same
// CachedPredictor. Re-profiling or re-characterizing invalidates the
// cached values — build a fresh CachedPredictor over the new oracle.
type CachedPredictor struct {
	base Oracle

	// cls maps each job to its degradation class.
	cls []int

	// Dense memo geometry: one block per device of classes × the
	// device's levels × classes × the other device's levels, each side
	// sized by its own ladder. nf[d] is device d's level count and
	// block the size of one device's block.
	k     int
	nf    [apu.NumDevices]int
	block int

	// state[k] is 1 once vals[k] holds Float64bits of the prediction.
	// Writers store the value before the flag; with Go's sequentially
	// consistent atomics a reader that observes state 1 therefore
	// observes the value. Two goroutines may race to fill the same
	// slot, but the oracle is deterministic, so they store identical
	// bits.
	state []atomic.Uint32
	vals  []atomic.Uint64

	// Hit/miss counters are striped across padded cache lines and
	// indexed by memo slot: the parallel searches call Degradation from
	// every worker, and a single shared counter would serialize them on
	// one contended line.
	hits   [counterStripes]paddedCounter
	misses [counterStripes]paddedCounter
}

// counterStripes is a power of two so the stripe index is a mask.
const counterStripes = 16

type paddedCounter struct {
	n atomic.Uint64
	_ [56]byte // pad to a 64-byte cache line
}

// NewCachedPredictor wraps an oracle in the memoizing layer; cfg
// bounds the frequency-level axes of the memo table.
func NewCachedPredictor(base Oracle, cfg *apu.Config) (*CachedPredictor, error) {
	if base == nil {
		return nil, fmt.Errorf("model: nil oracle")
	}
	if cfg == nil {
		return nil, fmt.Errorf("model: nil machine config")
	}
	cls := jobClasses(base)
	k := 0
	for _, c := range cls {
		k = max(k, c+1)
	}
	nf := [apu.NumDevices]int{cfg.NumFreqs(apu.CPU), cfg.NumFreqs(apu.GPU)}
	block := k * nf[apu.CPU] * k * nf[apu.GPU]
	return &CachedPredictor{
		base:  base,
		cls:   cls,
		k:     k,
		nf:    nf,
		block: block,
		state: make([]atomic.Uint32, apu.NumDevices*block),
		vals:  make([]atomic.Uint64, apu.NumDevices*block),
	}, nil
}

// Base returns the wrapped oracle.
func (c *CachedPredictor) Base() Oracle { return c.base }

// Unwrap peels the caching layer off an oracle, returning the base
// oracle of a CachedPredictor and every other oracle unchanged.
func Unwrap(o Oracle) Oracle {
	if c, ok := o.(*CachedPredictor); ok {
		return c.base
	}
	return o
}

// NumJobs delegates to the base oracle.
func (c *CachedPredictor) NumJobs() int { return c.base.NumJobs() }

// DegradationClasses implements Classed with the classes the memo is
// keyed by.
func (c *CachedPredictor) DegradationClasses() []int {
	return append([]int(nil), c.cls...)
}

// StandaloneTime delegates to the base oracle (a table read).
func (c *CachedPredictor) StandaloneTime(i int, d apu.Device, f int) units.Seconds {
	return c.base.StandaloneTime(i, d, f)
}

// StandalonePower delegates to the base oracle (a table read).
func (c *CachedPredictor) StandalonePower(i int, d apu.Device, f int) units.Watts {
	return c.base.StandalonePower(i, d, f)
}

// slot maps a degradation query to its memo index, or -1 when the
// query lies outside the table (defensively: the planners only issue
// in-range queries).
func (c *CachedPredictor) slot(i int, dev apu.Device, f, j, g int) int {
	n := len(c.cls)
	if i < 0 || i >= n || j < 0 || j >= n || dev != apu.CPU && dev != apu.GPU {
		return -1
	}
	nf, ng := c.nf[dev], c.nf[dev.Other()]
	if f < 0 || f >= nf || g < 0 || g >= ng {
		return -1
	}
	return int(dev)*c.block + ((c.cls[i]*nf+f)*c.k+c.cls[j])*ng + g
}

// Degradation memoizes the base oracle's degradation prediction.
func (c *CachedPredictor) Degradation(i int, dev apu.Device, f, j, g int) float64 {
	k := c.slot(i, dev, f, j, g)
	if k < 0 {
		c.misses[0].n.Add(1)
		return c.base.Degradation(i, dev, f, j, g)
	}
	if c.state[k].Load() != 0 {
		c.hits[k&(counterStripes-1)].n.Add(1)
		return math.Float64frombits(c.vals[k].Load())
	}
	c.misses[k&(counterStripes-1)].n.Add(1)
	v := c.base.Degradation(i, dev, f, j, g)
	c.vals[k].Store(math.Float64bits(v))
	c.state[k].Store(1)
	return v
}

// CoRunPower delegates to the base oracle: the paper's power model is
// the sum of two standalone-power table reads, cheaper than any memo
// lookup could be.
func (c *CachedPredictor) CoRunPower(i, f, j, g int) units.Watts {
	return c.base.CoRunPower(i, f, j, g)
}

// CacheStats reports the cache's effectiveness.
type CacheStats struct {
	Hits    uint64
	Misses  uint64
	Entries int
}

// Stats returns a snapshot of hit/miss counters and the filled memo
// size.
func (c *CachedPredictor) Stats() CacheStats {
	var s CacheStats
	for i := range c.hits {
		s.Hits += c.hits[i].n.Load()
		s.Misses += c.misses[i].n.Load()
	}
	for k := range c.state {
		if c.state[k].Load() != 0 {
			s.Entries++
		}
	}
	return s
}
