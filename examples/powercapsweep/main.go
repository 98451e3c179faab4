// Powercapsweep: study how the power cap changes the scheduling
// landscape. For caps from just-feasible up to uncapped, it plans and
// executes HCS+ and the baselines on the 8-program batch, printing one
// row per cap — the kind of table an operator would consult when
// choosing a rack-level cap.
package main

import (
	"fmt"
	"log"

	"corun"
)

func main() {
	caps := []float64{12, 13, 14, 15, 16, 18, 20, 25, 0} // 0 = uncapped

	fmt.Printf("%8s %10s %10s %10s %10s %12s\n",
		"cap(W)", "HCS+(s)", "Random(s)", "Default(s)", "bound(s)", "HCS+ gain")
	for _, cap := range caps {
		sys, err := corun.NewSystem(corun.WithPowerCap(cap))
		if err != nil {
			log.Fatalf("cap %.0f: %v", cap, err)
		}
		w, err := sys.Prepare(corun.Batch8())
		if err != nil {
			log.Fatal(err)
		}
		plan, err := w.Schedule("hcs+")
		if err != nil {
			log.Fatal(err)
		}
		rep, err := w.Run(plan)
		if err != nil {
			log.Fatal(err)
		}
		rnd, err := w.RunRandom(1, corun.GPUBiased)
		if err != nil {
			log.Fatal(err)
		}
		def, err := w.RunDefault(corun.GPUBiased)
		if err != nil {
			log.Fatal(err)
		}
		bound, err := w.LowerBound()
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%.0f", cap)
		if cap == 0 {
			label = "none"
		}
		fmt.Printf("%8s %10.1f %10.1f %10.1f %10.1f %11.0f%%\n",
			label, float64(rep.Makespan), float64(rnd.Makespan),
			float64(def.Makespan), float64(bound),
			100*(float64(rnd.Makespan)/float64(rep.Makespan)-1))
	}
	fmt.Println("\nTighter caps stretch makespans and widen the gap between")
	fmt.Println("cap-aware co-scheduling and the reactive baselines.")
}
