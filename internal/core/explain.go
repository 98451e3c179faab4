package core

import (
	"fmt"
	"io"

	"corun/internal/apu"
)

// ExplainPlan writes a human-readable account of why a schedule looks
// the way it does: each job's preference label and cap-feasible solo
// times, the queue placements, and the frequency pair the runtime will
// choose for each adjacent pairing in the plan. It is a debugging and
// teaching aid for the CLI, not part of the algorithm.
func (cx *Context) ExplainPlan(w io.Writer, s *Schedule, labels []string) error {
	n := cx.Oracle.NumJobs()
	if err := s.Validate(n); err != nil {
		return err
	}
	name := func(i int) string {
		if i >= 0 && i < len(labels) && labels[i] != "" {
			return labels[i]
		}
		return fmt.Sprintf("job%d", i)
	}

	prefs, err := cx.Categorize(s.Jobs(), 0)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "power cap: %v\n\njobs:\n", capLabel(cx)); err != nil {
		return err
	}
	for _, i := range s.Jobs() {
		tc, okC := cx.BestSoloTime(i, apu.CPU)
		tg, okG := cx.BestSoloTime(i, apu.GPU)
		line := fmt.Sprintf("  %-16s pref=%-3s", name(i), prefs[i])
		if okC {
			fc, _ := cx.BestSoloFreq(i, apu.CPU)
			line += fmt.Sprintf("  cpu %6.1fs@%v", float64(tc), cx.Cfg.Freq(apu.CPU, fc))
		}
		if okG {
			fg, _ := cx.BestSoloFreq(i, apu.GPU)
			line += fmt.Sprintf("  gpu %6.1fs@%v", float64(tg), cx.Cfg.Freq(apu.GPU, fg))
		}
		if s.Exclusive[i] {
			line += "  [runs alone]"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}

	if _, err := fmt.Fprintf(w, "\nqueues:\n  CPU: %v\n  GPU: %v\n\npairings (frequencies the runtime will pick):\n",
		nameList(s.CPUOrder, name), nameList(s.GPUOrder, name)); err != nil {
		return err
	}
	// Replay the predicted timeline and report each dispatch with its
	// chosen frequencies.
	return cx.explainTimeline(w, s, name)
}

// explainTimeline replays the predicted schedule and prints each
// dispatch with its chosen frequencies and predicted degradations.
func (cx *Context) explainTimeline(w io.Writer, s *Schedule, name func(int) string) error {
	cpuQ, gpuQ := s.CPUOrder, s.GPUOrder
	cpuRun, gpuRun := idle, idle
	now := 0.0
	for steps := 0; steps < 1<<16; steps++ {
		if cpuRun.idx < 0 && len(cpuQ) > 0 && cx.mayDispatch(s, cpuQ[0], gpuRun.idx) {
			cpuRun = start(cpuQ[0])
			cpuQ = cpuQ[1:]
			if err := cx.explainDispatch(w, now, apu.CPU, cpuRun.idx, gpuRun.idx, name); err != nil {
				return err
			}
		}
		if gpuRun.idx < 0 && len(gpuQ) > 0 && cx.mayDispatch(s, gpuQ[0], cpuRun.idx) {
			gpuRun = start(gpuQ[0])
			gpuQ = gpuQ[1:]
			if err := cx.explainDispatch(w, now, apu.GPU, gpuRun.idx, cpuRun.idx, name); err != nil {
				return err
			}
		}
		if cpuRun.idx < 0 && gpuRun.idx < 0 {
			return nil
		}
		dt, err := cx.step(&cpuRun, &gpuRun)
		if err != nil {
			return err
		}
		now += dt
	}
	return fmt.Errorf("core: explanation exceeded step limit")
}

// explainDispatch reports job run starting on dev beside job other on
// the other device (-1 when it is idle).
func (cx *Context) explainDispatch(w io.Writer, now float64, dev apu.Device, run, other int, name func(int) string) error {
	ci, gi := run, other
	if dev == apu.GPU {
		ci, gi = other, run
	}
	fp, dc, dg, ok := cx.ChoosePairFreqs(ci, gi)
	if !ok {
		return fmt.Errorf("core: infeasible pairing (%d,%d)", ci, gi)
	}
	beside := "idle"
	if other >= 0 {
		beside = name(other)
	}
	deg := dc
	if dev == apu.GPU {
		deg = dg
	}
	_, err := fmt.Fprintf(w, "  t=%7.1fs  %v <- %-16s beside %-16s freqs %v/%v  predicted degradation %.0f%%\n",
		now, dev, name(run), beside,
		cx.Cfg.Freq(apu.CPU, fp.CPU), cx.Cfg.Freq(apu.GPU, fp.GPU), 100*deg)
	return err
}

func nameList(idx []int, name func(int) string) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = name(j)
	}
	return out
}

func capLabel(cx *Context) string {
	if !cx.Capped() {
		return "none"
	}
	return fmt.Sprintf("%.1f W", float64(cx.Cap))
}
