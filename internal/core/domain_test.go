package core

import (
	"testing"

	"corun/internal/apu"
	"corun/internal/units"
	"corun/internal/workload"
)

// Acceptance criterion for domain-aware planning: a PP1-only cap must
// produce different frequency decisions than an equal package cap. The
// plane cap only constrains the GPU's own draw, so the planner may keep
// the CPU at full clock; the package cap forces a trade between both.
func TestPlanDomainCapDiffersFromPackageCap(t *testing.T) {
	const capW = units.Watts(9)
	batch := workload.Batch8()

	pp1, _ := testContext(t, batch, 0)
	pp1.Domains = apu.DomainCaps{PP1: capW}
	pkg, _ := testContext(t, batch, capW)

	if !pp1.Capped() {
		t.Fatal("PP1-only context reports uncapped")
	}

	differ := false
	for c := 0; c < 8 && !differ; c++ {
		for g := 0; g < 8; g++ {
			if c == g {
				continue
			}
			fpPlane, _, _, okPlane := pp1.ChoosePairFreqs(c, g)
			fpPkg, _, _, okPkg := pkg.ChoosePairFreqs(c, g)
			if okPlane != okPkg || fpPlane != fpPkg {
				differ = true
				break
			}
		}
	}
	if !differ {
		t.Error("PP1-only cap and equal package cap chose identical frequencies for all pairs")
	}

	// Every PP1-capped choice must respect the plane cap.
	for c := 0; c < 8; c++ {
		for g := 0; g < 8; g++ {
			if c == g {
				continue
			}
			fp, _, _, ok := pp1.ChoosePairFreqs(c, g)
			if !ok {
				t.Fatalf("pair (%d,%d) infeasible under a %v PP1 cap", c, g, capW)
			}
			if s := pp1.split(c, fp.CPU, g, fp.GPU); s.PP1 > capW {
				t.Errorf("pair (%d,%d) freqs %v: PP1 %v over the %v plane cap", c, g, fp, s.PP1, capW)
			}
		}
	}
}

// Binding must name the constraint with the highest utilization at the
// chosen operating point.
func TestContextBinding(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 0)
	cx.Domains = apu.DomainCaps{PP1: 9}
	fp, _, _, ok := cx.ChoosePairFreqs(2, 0)
	if !ok {
		t.Fatal("pair infeasible")
	}
	c, util := cx.Binding(2, fp.CPU, 0, fp.GPU)
	if c != apu.ConstraintPP1 {
		t.Errorf("binding = %v, want pp1", c)
	}
	if util <= 0 || util > 1+1e-9 {
		t.Errorf("binding utilization %v outside (0,1]", util)
	}

	// No constraints configured: nothing binds.
	free, _ := testContext(t, batch, 0)
	if c, _ := free.Binding(2, 0, 0, 0); c != apu.ConstraintNone {
		t.Errorf("unconstrained binding = %v", c)
	}
}

// The solo memo must honor plane caps: a PP0 cap lowers the best solo
// CPU level but leaves the GPU side alone.
func TestBestSoloFreqPlaneCap(t *testing.T) {
	batch := workload.Batch8()
	cx, _ := testContext(t, batch, 0)
	cx.Domains = apu.DomainCaps{PP0: 5}
	f, ok := cx.BestSoloFreq(2, apu.CPU)
	if !ok {
		t.Fatal("5 W PP0 cap infeasible for solo CPU run")
	}
	if f >= cx.Cfg.MaxFreqIndex(apu.CPU) {
		t.Errorf("5 W PP0 cap should force the CPU below max, got %d", f)
	}
	if s := cx.split(2, f, -1, 0); s.PP0 > 5 {
		t.Errorf("chosen level's PP0 %v violates the plane cap", s.PP0)
	}
	gf, ok := cx.BestSoloFreq(0, apu.GPU)
	if !ok || gf != cx.Cfg.MaxFreqIndex(apu.GPU) {
		t.Errorf("PP0 cap moved the GPU solo choice to %d,%v", gf, ok)
	}
}

// Step 1 must test co-run feasibility against every configured cap,
// not the package cap alone. At 15 W streamcluster and lud each gain
// from co-running with the other; a 5 W PP0 cap leaves no
// plane-feasible co-run that beats running them back to back, so both
// move to S_seq. A partition that checked only the package draw kept
// them in S_co.
func TestPartitionHonorsPlaneCap(t *testing.T) {
	b8 := workload.Batch8()
	batch := []*workload.Instance{
		{ID: 0, Prog: b8[0].Prog, Scale: 1, Label: b8[0].Label},
		{ID: 1, Prog: b8[5].Prog, Scale: 1, Label: b8[5].Label},
	}
	pkg, _ := testContext(t, batch, 15)
	if p := pkg.PartitionJobs(); len(p.SCo) != 2 {
		t.Fatalf("15 W partition %+v: want both jobs in S_co", p)
	}
	plane, _ := testContext(t, batch, 15)
	plane.Domains = apu.DomainCaps{PP0: 5}
	if p := plane.PartitionJobs(); len(p.SSeq) != 2 {
		t.Fatalf("15 W + 5 W PP0 partition %+v: want both jobs in S_seq", p)
	}

	// The plane-capped answer is the right one: every co-run that beats
	// sequential execution draws more than the PP0 cap allows, and at
	// least one of them fits the package cap.
	o := plane.Oracle
	_, _, seq0, _ := plane.BestSoloAnywhere(0)
	_, _, seq1, _ := plane.BestSoloAnywhere(1)
	packageOnly := 0
	for _, cg := range [][2]int{{0, 1}, {1, 0}} {
		c, g := cg[0], cg[1]
		for fc := 0; fc < plane.Cfg.NumFreqs(apu.CPU); fc++ {
			for fg := 0; fg < plane.Cfg.NumFreqs(apu.GPU); fg++ {
				ms := NaivePairMakespan(o.StandaloneTime(c, apu.CPU, fc), o.StandaloneTime(g, apu.GPU, fg),
					o.Degradation(c, apu.CPU, fc, g, fg), o.Degradation(g, apu.GPU, fg, c, fc))
				if ms >= seq0+seq1 {
					continue
				}
				if plane.pairFits(c, fc, g, fg) {
					t.Fatalf("co-run (%d@%d, %d@%d) beats sequential and fits every cap", c, fc, g, fg)
				}
				if o.CoRunPower(c, fc, g, fg) <= 15 {
					packageOnly++
				}
			}
		}
	}
	if packageOnly == 0 {
		t.Error("no beneficial co-run fits the package cap; the case does not exercise the plane cap")
	}
}
