// Customworkload: define your own jobs through the public API instead
// of the built-in Rodinia-like benchmarks — a video pipeline with a
// renderer, an encoder, a CPU-bound analyzer, and a memory-hungry
// filter — then co-schedule them under a 15 W cap and inspect the plan.
package main

import (
	"fmt"
	"log"
	"os"

	"corun"
)

func main() {
	specs := []corun.ProgramSpec{
		{
			// GPU-friendly shader-like kernel, moderate memory traffic.
			Name: "render", Work: 120,
			CPUEff: 0.5, GPUEff: 3.2,
			CPUSens: 0.25, GPUSens: 0.08,
			Phases: []corun.PhaseSpec{
				{Frac: 0.8, BytesPerOp: 1.4},
				{Frac: 0.2, BytesPerOp: 0.3},
			},
		},
		{
			// Encoder: GPU-preferred but compute-dominated.
			Name: "encode", Work: 90,
			CPUEff: 0.6, GPUEff: 2.4,
			CPUSens: 0.2, GPUSens: 0.05,
			Phases: []corun.PhaseSpec{{Frac: 1, BytesPerOp: 0.5}},
		},
		{
			// Analyzer: branchy CPU code, latency sensitive.
			Name: "analyze", Work: 70,
			CPUEff: 1.1, GPUEff: 0.9,
			CPUSens: 0.9, GPUSens: 0.2,
			Phases: []corun.PhaseSpec{
				{Frac: 0.6, BytesPerOp: 1.6},
				{Frac: 0.4, BytesPerOp: 0.6},
			},
		},
		{
			// Filter: streaming memory hog.
			Name: "filter", Work: 100,
			CPUEff: 0.55, GPUEff: 3.0,
			CPUSens: 0.3, GPUSens: 0.1,
			Phases: []corun.PhaseSpec{{Frac: 1, BytesPerOp: 2.2}},
		},
	}

	batch := make([]*corun.Instance, len(specs))
	for i, spec := range specs {
		in, err := corun.NewInstance(spec, i, 1.0)
		if err != nil {
			log.Fatal(err)
		}
		batch[i] = in
	}

	sys, err := corun.NewSystem(corun.WithPowerCap(15))
	if err != nil {
		log.Fatal(err)
	}
	w, err := sys.Prepare(batch)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := w.Schedule("hcs+")
	if err != nil {
		log.Fatal(err)
	}
	if err := w.ExplainPlan(os.Stdout, plan); err != nil {
		log.Fatal(err)
	}

	rep, err := w.Run(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmakespan %.1fs at %.2f W average (cap violations: %d)\n",
		float64(rep.Makespan), float64(rep.AvgPower), rep.CapViolations)
	if err := rep.WriteGantt(os.Stdout, 72); err != nil {
		log.Fatal(err)
	}

	rnd, err := w.RunRandom(1, corun.GPUBiased)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrandom dispatch would have taken %.1fs (%.0f%% slower)\n",
		float64(rnd.Makespan), 100*(float64(rnd.Makespan)/float64(rep.Makespan)-1))
}
