// Package core implements the paper's algorithmic contributions: the
// Co-Run Theorem, the heuristic co-scheduling algorithm (HCS), its
// post local refinement (HCS+), the optimal-makespan lower bound, and
// the Random and Default baseline schedulers.
//
// All algorithms consume an Oracle — predicted standalone times,
// pairwise co-run degradations, and powers at every frequency setting.
// In the full system the oracle is the staged-interpolation model of
// section V (package model); for ablations it can be the ground-truth
// simulator itself.
package core

import (
	"fmt"
	"sync"

	"corun/internal/apu"
	"corun/internal/units"
)

// Oracle supplies the performance and power estimates the scheduling
// algorithms reason over. Implementations: model.Predictor (the paper's
// predictive model) and model.GroundTruthOracle (measured, for
// ablation).
type Oracle interface {
	// NumJobs is the number of jobs in the batch.
	NumJobs() int

	// StandaloneTime is l_{i,p,f}: the solo execution time of job i on
	// device d at frequency level f.
	StandaloneTime(i int, d apu.Device, f int) units.Seconds

	// StandalonePower is the package power of that solo run.
	StandalonePower(i int, d apu.Device, f int) units.Watts

	// Degradation is d_{i,p,f}^{j,g}: the fractional slowdown of job i
	// on device d at level f while job j runs on the other device at
	// level g.
	Degradation(i int, dev apu.Device, f, j, g int) float64

	// CoRunPower is the package power with job i on the CPU at level f
	// and job j on the GPU at level g; a negative job index denotes an
	// idle device.
	CoRunPower(i, f, j, g int) units.Watts
}

// FreqPair is one DVFS operating point of the whole package.
type FreqPair struct {
	CPU int
	GPU int
}

// Context bundles an oracle with the machine description and the power
// cap, and memoizes the frequency-selection queries the algorithms
// issue repeatedly.
type Context struct {
	Oracle Oracle
	Cfg    *apu.Config
	// Cap is the package power cap; zero or negative means uncapped.
	Cap units.Watts

	// Domains are optional RAPL-style per-plane caps enforced on top of
	// Cap: a PP0 entry bounds the CPU cores' power, PP1 the iGPU's, and
	// a Package entry tightens Cap. Like FreqStride, set it before the
	// first query — the memo tables assume the caps are fixed. Plane
	// splits come from the Oracle when it implements model.DomainOracle
	// (the Context type-asserts for a CoRunSplit method); otherwise a
	// conservative split is derived from the standalone powers.
	Domains apu.DomainCaps

	// FreqStride coarsens the frequency traversal: only every
	// FreqStride-th level (counted down from the maximum) is examined.
	// The default 1 is the paper's exhaustive traversal; larger values
	// are the traversal-granularity ablation. Set it before the first
	// query: the memo tables assume it is fixed.
	FreqStride int

	// setupOnce builds the tables that hold for the context's whole
	// life, on the first query (FreqStride and Domains are final by
	// then): the frequency ladders, each job's degradation class, and
	// the class count k.
	setupOnce sync.Once
	ladders   [apu.NumDevices][]int
	cls       []int
	k         int

	// mu guards the memo tables; a Context may be shared by concurrent
	// planners (e.g. evaluating refinement candidates in parallel) as
	// long as the Oracle itself is safe for concurrent reads.
	mu       sync.Mutex
	pairMemo map[pairMemoKey]pairChoice
	soloMemo map[soloMemoKey]soloChoice
	msMemo   map[string]units.Seconds
	// points and minDeg are indexed by class pair (see classPair): the
	// cap-feasible operating points in traversal order and the memoized
	// MinPairDegradation answer.
	points []pairPoints
	minDeg []minDegChoice
}

// maxMakespanMemo bounds the predicted-makespan memo: the search
// policies evaluate many candidate schedules, and an unbounded table
// would grow with every distinct candidate ever seen. Once full, new
// schedules are evaluated but no longer stored.
const maxMakespanMemo = 1 << 16

type pairMemoKey struct{ c, g int }
type pairChoice struct {
	fp FreqPair
	dc float64 // degradation of the CPU job
	dg float64 // degradation of the GPU job
	ok bool
}

// pairPoints is one class pair's table: its cap-feasible operating
// points in traversal order (nil until built) and the pair's predicted
// degradations at each point (nil until the first full scan fills
// them). Neither slice is modified once published.
type pairPoints struct {
	pts  []FreqPair
	degs []pairDeg
}

// pairDeg holds the degradations of the CPU job (dc) and the GPU job
// (dg) at one operating point.
type pairDeg struct{ dc, dg float64 }

type minDegChoice struct {
	d       float64
	ok, set bool
}

type soloMemoKey struct {
	i int
	d apu.Device
}
type soloChoice struct {
	f  int
	ok bool
}

// NewContext builds a scheduling context.
func NewContext(o Oracle, cfg *apu.Config, cap units.Watts) (*Context, error) {
	if o == nil || cfg == nil {
		return nil, fmt.Errorf("core: nil oracle or machine config")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Context{
		Oracle:     o,
		Cfg:        cfg,
		Cap:        cap,
		FreqStride: 1,
		pairMemo:   map[pairMemoKey]pairChoice{},
		soloMemo:   map[soloMemoKey]soloChoice{},
		msMemo:     map[string]units.Seconds{},
	}, nil
}

// stride returns the effective traversal stride.
func (cx *Context) stride() int {
	if cx.FreqStride < 1 {
		return 1
	}
	return cx.FreqStride
}

// classedOracle is the class extension the Context looks for on its
// Oracle; it mirrors model.Classed without importing the package. Two
// jobs of one class answer every query except StandaloneTime alike, so
// anything computed from those answers may be shared across a class.
type classedOracle interface {
	DegradationClasses() []int
}

// setup builds the context's fixed tables once; see setupOnce.
func (cx *Context) setup() {
	cx.setupOnce.Do(func() {
		for d := apu.CPU; d <= apu.GPU; d++ {
			for f := cx.Cfg.MaxFreqIndex(d); f >= 0; f -= cx.stride() {
				cx.ladders[d] = append(cx.ladders[d], f)
			}
		}
		if c, ok := cx.Oracle.(classedOracle); ok {
			cx.cls = c.DegradationClasses()
		} else {
			cx.cls = make([]int, cx.Oracle.NumJobs())
			for i := range cx.cls {
				cx.cls[i] = i
			}
		}
		for _, c := range cx.cls {
			cx.k = max(cx.k, c+1)
		}
		cx.points = make([]pairPoints, cx.k*cx.k)
		cx.minDeg = make([]minDegChoice, cx.k*cx.k)
	})
}

// freqLevels enumerates the frequency indices of device d the context
// traverses: every stride-th level counted down from the maximum, so
// the top level is always included. The slice is shared; do not modify
// it.
func (cx *Context) freqLevels(d apu.Device) []int {
	cx.setup()
	return cx.ladders[d]
}

// classPair indexes the class-pair tables for CPU job c beside GPU job
// g.
func (cx *Context) classPair(c, g int) int {
	cx.setup()
	return cx.cls[c]*cx.k + cx.cls[g]
}

// feasiblePairs returns the operating points of CPU job c beside GPU
// job g that fit every configured constraint (see pairFits), in the
// traversal order of section IV-A.2: CPU level outer, GPU level inner,
// both descending. Feasibility reads only the jobs' powers, so the
// list is built once per class pair and shared; it lives as long as
// the context, whose caps are fixed. The slice is shared; do not
// modify it.
func (cx *Context) feasiblePairs(c, g int) []FreqPair {
	k := cx.classPair(c, g)
	cx.mu.Lock()
	pts := cx.points[k].pts
	cx.mu.Unlock()
	if pts != nil {
		return pts
	}
	cpu, gpu := cx.freqLevels(apu.CPU), cx.freqLevels(apu.GPU)
	pts = make([]FreqPair, 0, len(cpu)*len(gpu))
	for _, fc := range cpu {
		for _, fg := range gpu {
			if !cx.Capped() || cx.pairFits(c, fc, g, fg) {
				pts = append(pts, FreqPair{fc, fg})
			}
		}
	}
	cx.mu.Lock()
	cx.points[k].pts = pts
	cx.mu.Unlock()
	return pts
}

// scoredPairs returns feasiblePairs together with the pair's predicted
// degradations at each point. Jobs of one class answer Degradation
// alike, so the first full scan of a class pair reads them through the
// oracle and every later scan, for any job pair of those classes,
// reads the table. Both slices are shared; do not modify them.
func (cx *Context) scoredPairs(c, g int) ([]FreqPair, []pairDeg) {
	k := cx.classPair(c, g)
	cx.mu.Lock()
	t := cx.points[k]
	cx.mu.Unlock()
	if t.degs != nil {
		return t.pts, t.degs
	}
	o := cx.Oracle
	pts := cx.feasiblePairs(c, g)
	degs := make([]pairDeg, len(pts))
	for i, fp := range pts {
		degs[i] = pairDeg{
			dc: o.Degradation(c, apu.CPU, fp.CPU, g, fp.GPU),
			dg: o.Degradation(g, apu.GPU, fp.GPU, c, fp.CPU),
		}
	}
	cx.mu.Lock()
	cx.points[k].degs = degs
	cx.mu.Unlock()
	return pts, degs
}

// Capped reports whether any power constraint is in force — the
// package cap or any configured domain cap.
func (cx *Context) Capped() bool { return cx.Cap > 0 || cx.Domains.Any() }

// packageCap returns the effective package limit: the tighter of Cap
// and the Domains' package entry (zero = uncapped).
func (cx *Context) packageCap() units.Watts {
	c := cx.Cap
	if p := cx.Domains.Package; p > 0 && (c <= 0 || p < c) {
		c = p
	}
	return c
}

// domainOracle is the per-plane extension the Context looks for on its
// Oracle; it mirrors model.DomainOracle without importing the package.
type domainOracle interface {
	CoRunSplit(i, f, j, g int) apu.PowerSplit
}

// split breaks the pair's predicted power into planes, preferring the
// oracle's own decomposition. The fallback attributes everything above
// idle to the plane of the device running it — conservative for PP0
// (the host thread lands in PP1's gross term) but exact in total.
func (cx *Context) split(i, f, j, g int) apu.PowerSplit {
	if d, ok := cx.Oracle.(domainOracle); ok {
		return d.CoRunSplit(i, f, j, g)
	}
	idle := cx.Oracle.CoRunPower(-1, 0, -1, 0)
	s := apu.PowerSplit{Uncore: idle}
	if i >= 0 {
		s.PP0 = cx.Oracle.StandalonePower(i, apu.CPU, f) - idle
	}
	if j >= 0 {
		s.PP1 = cx.Oracle.StandalonePower(j, apu.GPU, g) - idle
	}
	return s
}

// planesFit reports whether the pair's plane split respects the
// configured PP0/PP1 caps.
func (cx *Context) planesFit(i, f, j, g int) bool {
	if cx.Domains.PP0 <= 0 && cx.Domains.PP1 <= 0 {
		return true
	}
	s := cx.split(i, f, j, g)
	if cx.Domains.PP0 > 0 && s.PP0 > cx.Domains.PP0 {
		return false
	}
	if cx.Domains.PP1 > 0 && s.PP1 > cx.Domains.PP1 {
		return false
	}
	return true
}

// pairFits reports whether the co-run operating point fits every
// configured constraint: the effective package cap and the plane caps.
func (cx *Context) pairFits(c, fc, g, fg int) bool {
	if pc := cx.packageCap(); pc > 0 && cx.Oracle.CoRunPower(c, fc, g, fg) > pc {
		return false
	}
	return cx.planesFit(c, fc, g, fg)
}

// soloFits is pairFits for a solo run of job i on device d at level f.
func (cx *Context) soloFits(i int, d apu.Device, f int) bool {
	if pc := cx.packageCap(); pc > 0 && cx.Oracle.StandalonePower(i, d, f) > pc {
		return false
	}
	ci, fc, gi, fg := i, f, -1, 0
	if d == apu.GPU {
		ci, fc, gi, fg = -1, 0, i, f
	}
	return cx.planesFit(ci, fc, gi, fg)
}

// Binding reports which constraint binds first at the pair's operating
// point — the plane or package cap with the highest utilization — and
// that utilization (predicted watts over the cap). ConstraintNone when
// nothing is configured.
func (cx *Context) Binding(c, fc, g, fg int) (apu.Constraint, float64) {
	dc := cx.Domains.WithPackage(cx.Cap)
	if !dc.Any() {
		return apu.ConstraintNone, 0
	}
	return dc.Binding(cx.split(c, fc, g, fg))
}

// BestSoloFreq returns the fastest cap-feasible frequency level for
// job i running alone on device d, preferring higher levels (times are
// monotone in frequency). ok is false when no level fits the cap.
func (cx *Context) BestSoloFreq(i int, d apu.Device) (int, bool) {
	key := soloMemoKey{i, d}
	cx.mu.Lock()
	if v, ok := cx.soloMemo[key]; ok {
		cx.mu.Unlock()
		return v.f, v.ok
	}
	cx.mu.Unlock()
	choice := soloChoice{f: 0, ok: false}
	for f := cx.Cfg.MaxFreqIndex(d); f >= 0; f-- {
		if !cx.Capped() || cx.soloFits(i, d, f) {
			choice = soloChoice{f: f, ok: true}
			break
		}
	}
	cx.mu.Lock()
	cx.soloMemo[key] = choice
	cx.mu.Unlock()
	return choice.f, choice.ok
}

// BestSoloTime returns job i's fastest cap-feasible solo time on d.
func (cx *Context) BestSoloTime(i int, d apu.Device) (units.Seconds, bool) {
	f, ok := cx.BestSoloFreq(i, d)
	if !ok {
		return 0, false
	}
	return cx.Oracle.StandaloneTime(i, d, f), true
}

// BestSoloAnywhere returns job i's best solo (device, level, time)
// across both devices under the cap.
func (cx *Context) BestSoloAnywhere(i int) (apu.Device, int, units.Seconds, bool) {
	bestDev, bestF := apu.CPU, -1
	var bestT units.Seconds
	found := false
	for d := apu.CPU; d <= apu.GPU; d++ {
		t, ok := cx.BestSoloTime(i, d)
		if !ok {
			continue
		}
		if !found || t < bestT {
			f, _ := cx.BestSoloFreq(i, d)
			bestDev, bestF, bestT, found = d, f, t, true
		}
	}
	return bestDev, bestF, bestT, found
}

// ChoosePairFreqs selects the frequency pair for CPU job c co-running
// with GPU job g (either may be -1 for an idle device), maximizing the
// combined normalized progress rate subject to the power cap. The
// normalization measures each job's progress relative to its best
// cap-feasible solo configuration, so long and short jobs weigh
// equally. It returns the chosen pair, the two predicted degradations,
// and whether any cap-feasible setting exists.
//
// This is the frequency traversal of section IV-A.2: every (f, g)
// combination allowed by the cap is examined.
func (cx *Context) ChoosePairFreqs(c, g int) (FreqPair, float64, float64, bool) {
	key := pairMemoKey{c, g}
	cx.mu.Lock()
	if v, ok := cx.pairMemo[key]; ok {
		cx.mu.Unlock()
		return v.fp, v.dc, v.dg, v.ok
	}
	cx.mu.Unlock()
	choice := cx.choosePairFreqsUncached(c, g)
	cx.mu.Lock()
	cx.pairMemo[key] = choice
	cx.mu.Unlock()
	return choice.fp, choice.dc, choice.dg, choice.ok
}

func (cx *Context) choosePairFreqsUncached(c, g int) pairChoice {
	o := cx.Oracle
	// Solo cases reduce to the solo frequency choice.
	if c < 0 && g < 0 {
		return pairChoice{fp: FreqPair{0, 0}, ok: true}
	}
	if c < 0 {
		f, ok := cx.BestSoloFreq(g, apu.GPU)
		return pairChoice{fp: FreqPair{0, f}, ok: ok}
	}
	if g < 0 {
		f, ok := cx.BestSoloFreq(c, apu.CPU)
		return pairChoice{fp: FreqPair{f, 0}, ok: ok}
	}

	refC, okC := cx.BestSoloTime(c, apu.CPU)
	refG, okG := cx.BestSoloTime(g, apu.GPU)
	if !okC || !okG {
		return pairChoice{}
	}
	best := pairChoice{}
	bestScore := -1.0
	pts, degs := cx.scoredPairs(c, g)
	for i, fp := range pts {
		d := degs[i]
		tc := float64(o.StandaloneTime(c, apu.CPU, fp.CPU)) * (1 + d.dc)
		tg := float64(o.StandaloneTime(g, apu.GPU, fp.GPU)) * (1 + d.dg)
		score := float64(refC)/tc + float64(refG)/tg
		if score > bestScore {
			bestScore = score
			best = pairChoice{fp: fp, dc: d.dc, dg: d.dg, ok: true}
		}
	}
	return best
}

// MinPairDegradation returns the minimal combined degradation (d_c +
// d_g) over all cap-feasible frequency pairs for CPU job c beside GPU
// job g — the interference metric of step 3. ok is false when no
// feasible pair exists. The answer reads only degradations, so it is
// memoized per class pair.
func (cx *Context) MinPairDegradation(c, g int) (float64, bool) {
	k := cx.classPair(c, g)
	cx.mu.Lock()
	v := cx.minDeg[k]
	cx.mu.Unlock()
	if v.set {
		return v.d, v.ok
	}
	v.set = true
	_, degs := cx.scoredPairs(c, g)
	for _, pd := range degs {
		d := pd.dc + pd.dg
		if !v.ok || d < v.d {
			v.d, v.ok = d, true
		}
	}
	cx.mu.Lock()
	cx.minDeg[k] = v
	cx.mu.Unlock()
	return v.d, v.ok
}
