// Package model implements the paper's co-run performance and power
// prediction (section V): micro-benchmark characterization of the
// degradation space plus staged interpolation.
//
// Characterization runs the controllable micro-kernel at a grid of
// bandwidth levels on each device and co-runs every pair, measuring the
// time degradation of each side on the ground-truth simulator — the
// software analogue of profiling the stressor on real hardware. One
// degradation surface pair (CPU-side, GPU-side) is collected per
// characterized frequency pair.
//
// Prediction is a two-stage interpolation. To predict the degradation
// of job i (on one device at level f) co-running with job j (on the
// other device at level g):
//
//  1. look up both jobs' standalone average bandwidths at their
//     operating points (from the offline profile) and bilinearly
//     interpolate each bracketing characterization surface in the
//     (cpu-bandwidth, gpu-bandwidth) plane;
//  2. bilinearly interpolate those surface values across the
//     characterized frequency grid to the actual frequency pair.
//
// This keeps profiling cost at O(K_c^2 * L^2) micro-kernel co-runs
// (K_c characterized levels per device, L bandwidth levels) instead of
// O(N^2 * K^2) real-program co-runs.
package model

import (
	"fmt"
	"math"
	"slices"

	"corun/internal/apu"
	"corun/internal/memsys"
	"corun/internal/microbench"
	"corun/internal/sim"
	"corun/internal/units"
)

// Surface is one characterized degradation surface pair at a fixed
// frequency pair.
type Surface struct {
	// CPUFreq and GPUFreq are the frequency indices this surface was
	// characterized at.
	CPUFreq int
	GPUFreq int

	// CPUBW[i] is the achieved standalone bandwidth of the i-th
	// micro-kernel level on the CPU at CPUFreq (ascending); GPUBW
	// likewise for the GPU.
	CPUBW []float64
	GPUBW []float64

	// DegCPU[i][j] is the time degradation of the CPU-side micro-kernel
	// at level i when the GPU-side runs at level j; DegGPU[i][j] is the
	// GPU side's degradation for the same pair.
	DegCPU [][]float64
	DegGPU [][]float64
}

// valueAt bilinearly interpolates one of the surface's tables at the
// given bandwidth coordinates, clamping outside the grid.
func (s *Surface) valueAt(table [][]float64, cpuBW, gpuBW float64) float64 {
	return lerp2(table, spanOf(s.CPUBW, cpuBW), spanOf(s.GPUBW, gpuBW))
}

// table returns the degradation table of the device-dev side.
func (s *Surface) table(dev apu.Device) [][]float64 {
	if dev == apu.CPU {
		return s.DegCPU
	}
	return s.DegGPU
}

// DegradationCPUAt interpolates the CPU-side degradation at the given
// standalone bandwidths.
func (s *Surface) DegradationCPUAt(cpuBW, gpuBW float64) float64 {
	return s.valueAt(s.DegCPU, cpuBW, gpuBW)
}

// DegradationGPUAt interpolates the GPU-side degradation.
func (s *Surface) DegradationGPUAt(cpuBW, gpuBW float64) float64 {
	return s.valueAt(s.DegGPU, cpuBW, gpuBW)
}

// bracket finds indices i0 <= i1 and the interpolation weight t such
// that xs[i0] <= x <= xs[i1] (clamped at the edges). xs is ascending.
// The axes hold 3 frequencies or 11 bandwidth levels, so a linear
// search beats a binary one.
func bracket(xs []float64, x float64) (int, int, float64) {
	n := len(xs)
	if n == 1 || x <= xs[0] {
		return 0, 0, 0
	}
	if x >= xs[n-1] {
		return n - 1, n - 1, 0
	}
	hi := 1
	for xs[hi] < x {
		hi++
	}
	lo := hi - 1
	span := xs[hi] - xs[lo]
	if span <= 0 {
		return lo, hi, 0
	}
	return lo, hi, (x - xs[lo]) / span
}

// span is a bracket result: x lies between axis entries lo and hi at
// weight t.
type span struct {
	lo, hi int
	t      float64
}

func spanOf(xs []float64, x float64) span {
	lo, hi, t := bracket(xs, x)
	return span{lo, hi, t}
}

// lerp2 bilinearly interpolates table at row span x and column span y.
func lerp2(table [][]float64, x, y span) float64 {
	v0 := units.Lerp(table[x.lo][y.lo], table[x.lo][y.hi], y.t)
	v1 := units.Lerp(table[x.hi][y.lo], table[x.hi][y.hi], y.t)
	return units.Lerp(v0, v1, x.t)
}

// Characterization is the full staged characterization: a sparse grid
// of frequency pairs, each with one degradation surface pair.
type Characterization struct {
	// CPULevels and GPULevels are the characterized frequency indices
	// (ascending).
	CPULevels []int
	GPULevels []int

	// Surfaces[a][b] is the surface at (CPULevels[a], GPULevels[b]).
	Surfaces [][]*Surface

	// cpuFreqGHz/gpuFreqGHz cache the clock values of the levels for
	// interpolation weights.
	cpuFreqGHz []float64
	gpuFreqGHz []float64

	// cpuAxis[a][b] is the first column e of row a whose surface has
	// the same CPU bandwidth axis as Surfaces[a][b]; gpuAxis[a][b] is
	// the first row e of column b whose surface has the same GPU axis.
	// Degradation brackets a bandwidth once per distinct axis.
	cpuAxis [][]int
	gpuAxis [][]int
}

// bind fills the derived tables of a characterization whose levels and
// surfaces are set: the clock values of the levels on machine cfg and
// the axis-sharing tables. The surfaces must not change afterwards.
func (c *Characterization) bind(cfg *apu.Config) {
	for _, l := range c.CPULevels {
		c.cpuFreqGHz = append(c.cpuFreqGHz, float64(cfg.Freq(apu.CPU, l)))
	}
	for _, l := range c.GPULevels {
		c.gpuFreqGHz = append(c.gpuFreqGHz, float64(cfg.Freq(apu.GPU, l)))
	}
	c.cpuAxis = make([][]int, len(c.Surfaces))
	c.gpuAxis = make([][]int, len(c.Surfaces))
	for a, row := range c.Surfaces {
		c.cpuAxis[a] = make([]int, len(row))
		c.gpuAxis[a] = make([]int, len(row))
		for b, s := range row {
			for !sameAxis(row[c.cpuAxis[a][b]].CPUBW, s.CPUBW) {
				c.cpuAxis[a][b]++
			}
			for !sameAxis(c.Surfaces[c.gpuAxis[a][b]][b].GPUBW, s.GPUBW) {
				c.gpuAxis[a][b]++
			}
		}
	}
}

// sameAxis reports whether two axes hold bit-identical values, so that
// bracketing either gives the same span.
func sameAxis(x, y []float64) bool {
	return slices.EqualFunc(x, y, func(u, v float64) bool {
		return math.Float64bits(u) == math.Float64bits(v)
	})
}

// CharacterizeOptions configures the characterization pass.
type CharacterizeOptions struct {
	Cfg *apu.Config
	Mem *memsys.Model

	// Levels are the micro-kernel bandwidth settings; nil defaults to
	// the paper's 11 settings over 0-11 GB/s.
	Levels []units.GBps

	// CPUFreqLevels and GPUFreqLevels are the frequency indices to
	// characterize at; nil defaults to {min, closest-to-median, max}.
	CPUFreqLevels []int
	GPUFreqLevels []int
}

func defaultFreqLevels(cfg *apu.Config, d apu.Device) []int {
	max := cfg.MaxFreqIndex(d)
	return []int{0, max / 2, max}
}

// Characterize runs the micro-kernel co-run grid on the ground-truth
// simulator and assembles the staged characterization.
func Characterize(opts CharacterizeOptions) (*Characterization, error) {
	if opts.Cfg == nil || opts.Mem == nil {
		return nil, fmt.Errorf("model: nil machine or memory model")
	}
	levels := opts.Levels
	if levels == nil {
		levels = microbench.DefaultLevels()
	}
	cpuLvls := opts.CPUFreqLevels
	if cpuLvls == nil {
		cpuLvls = defaultFreqLevels(opts.Cfg, apu.CPU)
	}
	gpuLvls := opts.GPUFreqLevels
	if gpuLvls == nil {
		gpuLvls = defaultFreqLevels(opts.Cfg, apu.GPU)
	}
	if err := checkAscending(cpuLvls, opts.Cfg.NumFreqs(apu.CPU)); err != nil {
		return nil, fmt.Errorf("model: CPU levels: %w", err)
	}
	if err := checkAscending(gpuLvls, opts.Cfg.NumFreqs(apu.GPU)); err != nil {
		return nil, fmt.Errorf("model: GPU levels: %w", err)
	}

	c := &Characterization{CPULevels: cpuLvls, GPULevels: gpuLvls}
	c.Surfaces = make([][]*Surface, len(cpuLvls))
	for a, cf := range cpuLvls {
		c.Surfaces[a] = make([]*Surface, len(gpuLvls))
		for b, gf := range gpuLvls {
			s, err := characterizeSurface(opts, levels, cf, gf)
			if err != nil {
				return nil, err
			}
			c.Surfaces[a][b] = s
		}
	}
	c.bind(opts.Cfg)
	return c, nil
}

func checkAscending(levels []int, n int) error {
	if len(levels) == 0 {
		return fmt.Errorf("empty level list")
	}
	for i, l := range levels {
		if l < 0 || l >= n {
			return fmt.Errorf("level %d out of range [0,%d)", l, n)
		}
		if i > 0 && l <= levels[i-1] {
			return fmt.Errorf("levels not strictly ascending")
		}
	}
	return nil
}

// characterizeSurface measures one frequency pair's 2D degradation
// grid.
func characterizeSurface(opts CharacterizeOptions, levels []units.GBps, cf, gf int) (*Surface, error) {
	n := len(levels)
	s := &Surface{
		CPUFreq: cf, GPUFreq: gf,
		CPUBW:  make([]float64, n),
		GPUBW:  make([]float64, n),
		DegCPU: make([][]float64, n),
		DegGPU: make([][]float64, n),
	}
	cfg, mem := opts.Cfg, opts.Mem

	// Grid coordinates: achieved standalone bandwidths at this
	// frequency pair.
	for i, lvl := range levels {
		k, err := microbench.Kernel(lvl, cfg)
		if err != nil {
			return nil, err
		}
		s.CPUBW[i] = float64(k.AvgStandaloneBandwidth(apu.CPU, cfg.Freq(apu.CPU, cf), mem))
		s.GPUBW[i] = float64(k.AvgStandaloneBandwidth(apu.GPU, cfg.Freq(apu.GPU, gf), mem))
	}

	simOpts := sim.Options{Cfg: cfg, Mem: mem}
	for i := range levels {
		s.DegCPU[i] = make([]float64, n)
		s.DegGPU[i] = make([]float64, n)
		for j := range levels {
			cpuInst, err := microbench.Instance(levels[i], cfg, 0)
			if err != nil {
				return nil, err
			}
			gpuInst, err := microbench.Instance(levels[j], cfg, 1)
			if err != nil {
				return nil, err
			}
			cres, err := sim.CoRun(simOpts, cpuInst, apu.CPU, gpuInst, cf, gf)
			if err != nil {
				return nil, err
			}
			s.DegCPU[i][j] = clampTiny(cres.Degradation)
			gres, err := sim.CoRun(simOpts, gpuInst, apu.GPU, cpuInst, cf, gf)
			if err != nil {
				return nil, err
			}
			s.DegGPU[i][j] = clampTiny(gres.Degradation)
		}
	}
	return s, nil
}

// clampTiny zeroes the sub-microscopic negative degradations that the
// event simulator's time tolerance can produce.
func clampTiny(d float64) float64 {
	if d < 0 && d > -1e-6 {
		return 0
	}
	return d
}

// SurfaceAt returns the characterized surface at grid cell (a, b).
func (c *Characterization) SurfaceAt(a, b int) *Surface { return c.Surfaces[a][b] }

// Degradation predicts the degradation of the device-`dev` side of a
// co-run whose CPU side streams cpuBW GB/s standalone and whose GPU
// side streams gpuBW GB/s, at the actual frequency pair (cpuGHz,
// gpuGHz). This is the staged interpolation: bandwidth-plane bilinear
// per surface, then frequency-plane bilinear across surfaces.
//
// A surface's CPU axis depends only on its CPU level and its GPU axis
// only on its GPU level, so the four bracketing surfaces share their
// axes pairwise: each distinct axis is bracketed once. Axes are shared
// only when their values are equal (see bind), which a loaded
// characterization need not satisfy.
func (c *Characterization) Degradation(dev apu.Device, cpuBW, gpuBW, cpuGHz, gpuGHz float64) float64 {
	a, b := spanOf(c.cpuFreqGHz, cpuGHz), spanOf(c.gpuFreqGHz, gpuGHz)
	s00, s01 := c.Surfaces[a.lo][b.lo], c.Surfaces[a.lo][b.hi]
	s10, s11 := c.Surfaces[a.hi][b.lo], c.Surfaces[a.hi][b.hi]
	ca, ga := c.cpuAxis, c.gpuAxis

	// CPU axes: row a.lo, then row a.hi.
	x00 := spanOf(s00.CPUBW, cpuBW)
	x01 := x00
	if ca[a.lo][b.hi] != ca[a.lo][b.lo] {
		x01 = spanOf(s01.CPUBW, cpuBW)
	}
	x10, x11 := x00, x01
	if a.hi != a.lo {
		x10 = spanOf(s10.CPUBW, cpuBW)
		x11 = x10
		if ca[a.hi][b.hi] != ca[a.hi][b.lo] {
			x11 = spanOf(s11.CPUBW, cpuBW)
		}
	}
	// GPU axes: column b.lo, then column b.hi.
	y00 := spanOf(s00.GPUBW, gpuBW)
	y10 := y00
	if ga[a.hi][b.lo] != ga[a.lo][b.lo] {
		y10 = spanOf(s10.GPUBW, gpuBW)
	}
	y01, y11 := y00, y10
	if b.hi != b.lo {
		y01 = spanOf(s01.GPUBW, gpuBW)
		y11 = y01
		if ga[a.hi][b.hi] != ga[a.lo][b.hi] {
			y11 = spanOf(s11.GPUBW, gpuBW)
		}
	}

	v0 := units.Lerp(lerp2(s00.table(dev), x00, y00), lerp2(s01.table(dev), x01, y01), b.t)
	v1 := units.Lerp(lerp2(s10.table(dev), x10, y10), lerp2(s11.table(dev), x11, y11), b.t)
	return units.Lerp(v0, v1, a.t)
}
